"""The benchmark's tracer still finds every library binding it wraps.

``bench/tracing.py`` replaces module attributes such as
``explorer.sumset_layered`` and ``kernel.SumsetResult`` while a traced run
is in progress.  A refactor that stops calling through one of them would
silently drop its spans; this runs the traced layers once and checks that
each span name still appears.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from sumsets import audit, make_set  # noqa: E402
from sumsets.core import SetFamily  # noqa: E402
from sumsets.explorer import ScanConfig, parse_mode, scan  # noqa: E402


def test_tracer_sees_every_layer():
    tracer = tracing.Tracer()
    with tracer.patched():
        scan(ScanConfig(4, 10, SetFamily.POSITIVE, parse_mode("conj:C2_1")))
        scan(ScanConfig(4, 10, SetFamily.POSITIVE, parse_mode("verify:T2_2")))
        audit(make_set([1, 3, 5, 7]), 2)
    assert {
        "kernel.layered.restricted-signed",
        "kernel.naive.restricted-signed",
        "core.result",
    } <= set(tracer.names)
