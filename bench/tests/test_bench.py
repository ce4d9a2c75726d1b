"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Every metric that BENCHMARK.json names is printed with its unit, a correct
run reports no failures, and a wrong reference fails every op, so the
output check is able to fail.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import record  # noqa: E402
import run  # noqa: E402
from workloads import MixWorkload, ScanWorkload  # noqa: E402

TINY = {
    w.name: w
    for w in (
        ScanWorkload("scan-conj", "conj:C2_1", 6, 9, jobs=1, with_csv=False),
        ScanWorkload("scan-verify", "verify:T2_1", 5, 9, jobs=2, with_csv=True),
        MixWorkload("oracle-mix", 10),
    )
}


@pytest.fixture(scope="module")
def references():
    return {
        "scans": {name: record.record_scan(TINY[name]) for name in ("scan-conj", "scan-verify")},
        "oracle-mix": record.record_mix(TINY["oracle-mix"], mixes=1),
    }


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    return spec


def _run(capsys, workload, trace, references):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, catalog=TINY, references=references) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(capsys, references, declared, workload, trace):
    result, _ = _run(capsys, workload, trace, references)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workloads_match_declaration(declared):
    assert [w["name"] for w in declared["workloads"]] == list(TINY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_wrong_reference_fails_every_op(capsys, references, workload):
    wrong = json.loads(json.dumps(references))
    if workload == "oracle-mix":
        wrong["oracle-mix"]["digests"]["0"] = "0" * 64
    else:
        wrong["scans"][workload]["fingerprint_sha256"] = "0" * 64
    result, lines = _run(capsys, workload, 0, wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert lines[-1].split()[:2] == ["error_rate", "1"]


def test_self_times_add_up_to_the_scan(capsys, references):
    _, lines = _run(capsys, "scan-conj", 1, references)
    (line,) = [line for line in lines if line.startswith("self times")]
    words = line.split()
    inside, total = float(words[6]), float(words[10])
    assert inside == pytest.approx(total, abs=1e-5)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-conj", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
