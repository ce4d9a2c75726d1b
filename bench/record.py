"""Regenerate references.json from the library as it stands.

    python3 bench/record.py

For each scan workload it records the sha256 of ``ScanReport.fingerprint()``
and ``sets_scanned``, after checking that the scan gives the same
fingerprint at jobs=1 and at the workload's own jobs and that
``sets_scanned`` equals ``count_normalized_sets``.  For oracle-mix it
records the digest of the ordered cardinalities of every input mix.  It
refuses to record an output whose op failed.  Takes about six minutes on a
2-vCPU x86 host.
"""
from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from tracing import Direct  # noqa: E402
from workloads import MIX_INPUTS, WORKLOADS, MixWorkload, ScanWorkload  # noqa: E402


def record_scan(workload: ScanWorkload) -> dict:
    inputs = workload.inputs(0)
    serial = workload.run(inputs, Direct(), jobs=1)
    pooled = workload.run(inputs, Direct())
    if serial.failed or pooled.failed or serial.digest != pooled.digest:
        raise SystemExit(f"{workload.name}: scan failed or depends on jobs")
    if serial.sets != inputs.expected_sets:
        raise SystemExit(f"{workload.name}: scanned {serial.sets}, expected {inputs.expected_sets}")
    return {"key": workload.key, "fingerprint_sha256": serial.digest, "sets_scanned": serial.sets}


def record_mix(workload: MixWorkload, mixes: int = MIX_INPUTS) -> dict:
    digests = {}
    for mix in range(mixes):
        out = workload.run(workload.inputs(mix), Direct())
        if out.failed:
            raise SystemExit(f"{workload.name}: {out.failed} ops failed on input mix {mix}")
        digests[str(mix)] = out.digest
        print(f"{workload.name} mix {mix}: {len(out.latencies)} ops in {out.wall:.1f} s", file=sys.stderr)
    return {"n_sets": workload.n_sets, "digests": digests}


def main() -> None:
    references = {"scans": {}}
    for workload in WORKLOADS.values():
        if isinstance(workload, ScanWorkload):
            references["scans"][workload.name] = record_scan(workload)
        else:
            references[workload.name] = record_mix(workload)
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as out:
        json.dump(references, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
