"""The benchmark's recorded outputs still match the library.

``bench/references.json`` pins each scan's report fingerprint and set
count and the oracle-mix cardinality digest.  The self-check in
``bench/tests`` records fresh references, so it cannot notice a change
that alters one of these outputs; this runs every workload once, untraced,
at seed 0 against the committed references, and writes nothing.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_recorded_reference(name):
    references = json.loads((BENCH / "references.json").read_text())
    workload = WORKLOADS[name]
    inputs = workload.inputs(0)
    out = workload.run(inputs, tracing.Direct())
    assert workload.failures(out, inputs, references) == 0
