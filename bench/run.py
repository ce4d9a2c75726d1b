"""Benchmark command for the sumsets library.

    python3 bench/run.py --workload scan-conj --seed 0 --seconds 30 --trace 0

Runs one workload from ``workloads.py`` against the library under ``src/``
for about ``--seconds`` seconds and checks every output against
``references.json``.  It prints one line per metric (name, value, unit,
sample count) and, as the last line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it repeats the workload untraced for half of
``--seconds``, then runs one repetition (one pass, for oracle-mix) with
spans around the calls into each module, at jobs=1 because spans recorded
in pool workers would be lost, and writes the spans to
``.bench_trace/<workload>-seed<seed>.tsv``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

# setup_s is the median of this many fresh interpreters
SETUP_REPS = 11

KINDS = ("unrestricted", "restricted", "signed", "restricted-signed")
LOC_MODULES = (
    "__init__", "bounds", "cli", "core", "errors", "explorer", "inverse",
    "kernel", "witness",
)

END_TO_END = {
    "sets_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for engine in ("layered", "naive"):
        for kind in KINDS:
            units[f"kernel.{engine}.{kind}.calls"] = "count"
            units[f"kernel.{engine}.{kind}.s"] = "s"
    units.update({
        "kernel.layered.self_s": "s",
        "kernel.values": "count",
        "kernel.mask_bits.max": "bit",
        "kernel.mask_bits.sum": "bit",
        "core.result.calls": "count",
        "core.result.s": "s",
        "bounds.audit.calls": "count",
        "bounds.audit.s": "s",
        "bounds.audit.self_s": "s",
        "inverse.classify.calls": "count",
        "inverse.classify.s": "s",
        "inverse.classify.self_s": "s",
        "witness.verify.calls": "count",
        "witness.verify.s": "s",
        "explorer.scan.s": "s",
        "explorer.self_s": "s",
        "explorer.sets": "count",
        "explorer.records": "count",
        "explorer.oracle_calls": "count",
        "explorer.oracle_ratio": "ratio",
        "explorer.report.s": "s",
        "explorer.report_bytes": "B",
        "explorer.workers_cpu_s": "s",
        "explorer.pool_idle_s": "s",
    })
    for module in LOC_MODULES:
        units[f"src.loc.{module}"] = "lines"
    units["src.loc.total"] = "lines"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    return units


PER_LAYER = _per_layer_units()

# Runs in a fresh interpreter: the import and input generation a user pays
# before the first call.  The benchmark's own module import is not counted.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import sumsets
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]))
print(t1 - t0 + time.perf_counter() - t2)
"""


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, BENCH_DIR, name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def quantile(values: list[int], q: float) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def repeat(run, seconds: float) -> list:
    """Call ``run`` until ``seconds`` have passed, at least once."""
    results = []
    deadline = perf_counter() + seconds
    while not results or perf_counter() < deadline:
        results.append(run())
    return results


def end_to_end(workload, inputs, seconds: float, setup_s: float):
    from tracing import Calibrated

    probe = Calibrated()
    outcomes = repeat(lambda: workload.run(inputs, probe), seconds)
    # The host's speed during the run, from a loop that does not touch the
    # library: on a shared host, a slow spell shows here and in every metric.
    print(
        f"host speed: reference loop best {min(probe.reference) / 1e6:.3f} ms, "
        f"median {statistics.median(probe.reference) / 1e6:.3f} ms of {len(probe.reference)}"
    )
    # each op's latency is its best over the repetitions, as timeit takes it
    best = [min(runs) for runs in zip(*(out.latencies for out in outcomes))]
    busy = sum(best) * 1e-9
    metrics = {
        "sets_per_s": outcomes[0].sets / busy,
        "ops_per_s": len(best) / busy,
        "op_p50_ms": quantile(best, 0.50) / 1e6,
        "op_p99_ms": quantile(best, 0.99) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    samples = {name: f"{len(best)} ops x best of {len(outcomes)}" for name in metrics}
    samples.update(peak_rss_mb=1, setup_s=SETUP_REPS)
    return metrics, samples, outcomes


def _pool_run(workload, inputs):
    """One untraced run with the workload's own jobs, measured from outside:
    the executor reaps its workers on exit, so RUSAGE_CHILDREN covers them."""
    from tracing import Direct

    own, children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    out = workload.run(inputs, Direct())
    own = _cpu(resource.RUSAGE_SELF) - own
    children = _cpu(resource.RUSAGE_CHILDREN) - children
    return out, children, workload.jobs * out.wall - own - children


def loc_metrics() -> dict[str, int]:
    """Non-blank, non-comment lines per module of src/sumsets."""
    package = os.path.join(SRC, "sumsets")
    counts = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as source:
                counts[filename[:-3]] = sum(
                    1 for line in source
                    if line.strip() and not line.lstrip().startswith("#")
                )
    metrics = {f"src.loc.{module}": counts.get(module, 0) for module in LOC_MODULES}
    metrics["src.loc.total"] = sum(counts.values())
    return metrics


def per_layer(workload, inputs, seconds: float, seed: int):
    from tracing import Direct, Tracer

    pooled = repeat(lambda: _pool_run(workload, inputs), seconds / 2)
    outcomes = [out for out, _, _ in pooled]
    baseline = outcomes
    if workload.jobs != 1:
        baseline = repeat(lambda: workload.run(inputs, Direct(), jobs=1), seconds / 2)
        outcomes += baseline
    tracer = Tracer()
    with tracer.patched():
        traced = workload.run(inputs, tracer, jobs=1)
    outcomes.append(traced)
    overhead = traced.wall / statistics.median(out.wall for out in baseline) - 1

    agg, oracle_calls, layered_in_scan = tracer.aggregate()
    zero = [0, 0.0, 0.0]
    scanned = "explorer.scan" in agg
    metrics: dict[str, float] = {}
    for engine in ("layered", "naive"):
        for kind in KINDS:
            calls, secs, _ = agg.get(f"kernel.{engine}.{kind}", zero)
            metrics[f"kernel.{engine}.{kind}.calls"] = calls
            metrics[f"kernel.{engine}.{kind}.s"] = secs
    metrics["kernel.layered.self_s"] = sum(agg.get(f"kernel.layered.{kind}", zero)[2] for kind in KINDS)
    metrics["kernel.values"] = tracer.values
    metrics["kernel.mask_bits.max"] = tracer.mask_bits_max
    metrics["kernel.mask_bits.sum"] = tracer.mask_bits_sum
    for layer in ("core.result", "bounds.audit", "inverse.classify", "witness.verify"):
        calls, secs, own = agg.get(layer, zero)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = secs
        if layer in ("bounds.audit", "inverse.classify"):
            metrics[f"{layer}.self_s"] = own
    metrics.update({
        "explorer.scan.s": agg.get("explorer.scan", zero)[1],
        "explorer.self_s": agg.get("explorer.scan", zero)[2],
        "explorer.sets": traced.sets if scanned else 0,
        "explorer.records": traced.records,
        "explorer.oracle_calls": oracle_calls,
        "explorer.oracle_ratio": oracle_calls / layered_in_scan if layered_in_scan else 0.0,
        "explorer.report.s": agg.get("explorer.report", zero)[1],
        "explorer.report_bytes": traced.report_bytes,
        "explorer.workers_cpu_s": statistics.median(cpu for _, cpu, _ in pooled) if scanned else 0.0,
        "explorer.pool_idle_s": statistics.median(idle for _, _, idle in pooled) if scanned else 0.0,
    })
    metrics.update(loc_metrics())
    metrics["trace.overhead_pct"] = 100 * overhead
    metrics["trace.spans"] = len(tracer.names)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.tsv")
    tracer.dump(path)
    print(f"spans: {len(tracer.names)} written to {os.path.relpath(path, ROOT)}")
    if scanned:
        inside = sum(own for name, (_, _, own) in agg.items() if name != "explorer.report")
        print(
            f"self times inside explorer.scan sum to {inside:.6f} s; "
            f"explorer.scan.s is {metrics['explorer.scan.s']:.6f} s; "
            f"tracing overhead {metrics['trace.overhead_pct']:.1f} %"
        )
    samples = {name: 1 for name in metrics}
    if scanned:
        samples["explorer.workers_cpu_s"] = samples["explorer.pool_idle_s"] = len(pooled)
    samples["trace.overhead_pct"] = len(baseline)
    return metrics, samples, outcomes


def main(argv: list[str] | None = None, catalog: dict | None = None,
         references: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sumsets", "__init__.py")):
        print(f"benchmark: no sumsets sources under {SRC}", file=sys.stderr)
        return 2
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import sumsets

    if os.path.dirname(os.path.abspath(sumsets.__file__)) != os.path.join(SRC, "sumsets"):
        print(f"benchmark: imported sumsets from {sumsets.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    catalog = catalog or workloads.WORKLOADS
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(catalog)}")
    if references is None:
        with open(REFERENCES) as source:
            references = json.load(source)
    workload = catalog[args.workload]

    inputs = workload.inputs(args.seed)
    if args.trace:
        metrics, samples, outcomes = per_layer(workload, inputs, args.seconds, args.seed)
        units = PER_LAYER
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics, samples, outcomes = end_to_end(workload, inputs, args.seconds, setup_s)
        units = END_TO_END
    attempted = sum(len(out.latencies) for out in outcomes)
    failed = sum(workload.failures(out, inputs, references) for out in outcomes)

    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit:<6} samples={samples.get(name, 1)}")
    print(f"{'error_rate':<40} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
