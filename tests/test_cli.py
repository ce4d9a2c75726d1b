import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sumsets.cli import main
from sumsets.core import canonical_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_plain(capsys):
    code, out, _ = run(
        capsys, "compute", "--set", "1,3,5", "--h", "2", "--kind", "restricted-signed"
    )
    assert code == 0
    assert out.splitlines() == ["-8,-6,-4,-2,2,4,6,8", "cardinality 8"]


def test_compute_singleton(capsys):
    code, out, _ = run(capsys, "compute", "--set", "7", "--h", "1")
    assert code == 0
    assert out.splitlines()[0] == "-7,7"


def test_compute_engines_agree(capsys):
    outputs = set()
    for engine in ("naive", "layered"):
        code, out, _ = run(
            capsys,
            "compute", "--set", "2,3,9,11", "--h", "3",
            "--kind", "signed", "--engine", engine, "--json",
        )
        assert code == 0
        outputs.add(out.replace(f'"{engine}"', '"X"'))
    assert len(outputs) == 1


def test_compute_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "compute", "--set", "1,2,4", "--h", "2", "--json"
    )
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--set", "0,1,2,4", "--h", "3")
    assert code == 0
    assert "T3_5 bound=12 Equality" in out


def test_bound_json_round_trips(capsys):
    code, out, _ = run(capsys, "bound", "--set", "1,3,5,7", "--h", "2", "--json")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--set", "1,2,4,8", "--h", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"]
    names = [f["name"] for f in payload["families"]]
    assert names == ["s", "t"]
    element = payload["families"][0]["elements"][0]
    assert set(element) == {"label", "value", "relation_to_next"}
    assert canonical_json(payload) == out


def test_witness_zero_flag(capsys):
    code, out, _ = run(
        capsys, "witness", "--set", "0,1,2", "--h", "2", "--zero-in-a"
    )
    assert code == 0
    assert json.loads(out)["all_ok"]


def test_witness_superincreasing(capsys):
    code, out, _ = run(
        capsys,
        "witness", "--set", "1,2,4,8,16,32", "--h", "5", "--superincreasing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"]
    assert any(f["name"].startswith("-t") for f in payload["families"])


def test_classify_command_json(capsys):
    code, out, _ = run(capsys, "classify", "--set", "3,9,15,21", "--h", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "OddAP" and payload["params"] == {"d": 3, "k": 4}
    assert canonical_json(payload) == out


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "compute", "--set", "1,,3", "--h", "2")[0] == 64
    assert run(capsys, "compute", "--set", "1,3", "--frob", "2")[0] == 64
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "scan", "--mode", "verify:T2_4", "--k", "4",
               "--max", "20", "--h", "3-x")[0] == 64


def test_domain_errors_exit_65(capsys):
    code, _, err = run(capsys, "compute", "--set", "1,3", "--h", "9",
                       "--kind", "restricted")
    assert code == 65 and "1 <= h <= k" in err
    # negative elements need the --set= form so argparse keeps the value
    assert run(capsys, "bound", "--set=-1,3", "--h", "1")[0] == 65
    assert run(capsys, "scan", "--mode", "verify:T2_4", "--k", "3",
               "--family", "positive", "--max", "20")[0] == 65


def test_compute_huge_fold_exits_65(capsys):
    code, _, err = run(capsys, "compute", "--set", "1,2", "--h",
                       str(10**15), "--kind", "unrestricted")
    assert code == 65 and "bits" in err


def test_compute_naive_huge_fold_exits_65(capsys):
    code, _, err = run(capsys, "compute", "--set", "1,2", "--h", str(10**15),
                       "--kind", "unrestricted", "--engine", "naive")
    assert code == 65 and "terms" in err


def test_scan_fold_range_checked_before_it_is_built(capsys):
    # a range past k must fail as a domain error, never reach range()
    code, _, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "4",
                       "--max", "20", "--h", "1-99999999999999999999")
    assert code == 65 and "within 1..4" in err


def test_scan_frame_budget_refused_before_partitioning(capsys):
    # the scan sizes every DP mask by --max: 3 layers of 4*10^10 + 1 bits
    code, _, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "2",
                       "--max", str(10**10))
    assert code == 65 and "bits" in err


def test_scan_space_budget_refused_before_allocating():
    # 3*10^8 passes the frame budget; listing its prefix blocks, or sieving
    # to 3*10^8, would exhaust a 400 MB address space (MemoryError, exit 1)
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        sys.exit(main(["scan", "--mode", "verify:T2_1", "--k", "2",
                       "--max", "300000000"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 65, proc.stderr
    assert "prefix blocks, over 2^18" in proc.stderr


def test_scan_walk_layer_copies_budgeted_before_walking():
    # the walk holds a layer list per tree level: at k=1100 one list of
    # (h+1)*(2h*max+1) bits passes the frame budget, but the 1,099 lists of
    # a full-fold scan come to 2.9*10^12 bits, far past a 400 MB address space
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        for mode in ("verify:T2_1", "verify:T2_3"):
            code = main(["scan", "--mode", mode, "--k", "1100", "--max", "1101"])
            if code != 65:
                sys.exit(code or 1)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("1099 x (h+1)*(2h*max|a_i|+1)") == 2, proc.stderr


def test_scan_walk_depth_is_not_bounded_by_recursion():
    # k=200 sets nest 198 tree levels below their prefix blocks; a walk that
    # recursed once per element would die with RecursionError (exit 1) under
    # a recursion limit of 120, as verify:T2_2 --k 1100 did under the default
    child = textwrap.dedent("""
        import sys
        sys.setrecursionlimit(120)
        from sumsets.cli import main
        for argv in (["--mode", "verify:T2_1", "--h", "1"], ["--mode", "verify:T2_2"]):
            code = main(["scan", "--k", "200", "--max", "201", *argv])
            if code:
                sys.exit(code)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("sets_scanned 201") == 2


def test_scan_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-3", "x"):
        code, _, err = run(capsys, "scan", "--mode", "conj:C2_1", "--k", "4",
                           "--max", "9", "--jobs", jobs)
        assert code == 64 and "--jobs" in err


def test_scan_clean_exit_0(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "scan", "--mode", "verify:T2_4", "--k", "4", "--family", "positive",
        "--max", "14", "--jobs", "2",
        "--out", str(out_path), "--csv", str(csv_path),
    )
    assert code == 0
    assert "sets_scanned" in out
    report = json.loads(out_path.read_text())
    assert [r["set"] for r in report["equalities"]] == ["1,3,5,7"]
    assert canonical_json(report) == out_path.read_text()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "type,set,h,cardinality,bound,family"
    assert lines[1].startswith('equality,"1,3,5,7"')


def test_scan_counterexample_exit_3(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--mode", "conj:C3_1", "--k", "5", "--family", "contains-zero",
        "--max", "13",
    )
    assert code == 3
    assert "INVERSE COUNTEREXAMPLE 0,1,2,4,6" in out
    assert "naive_cardinality=21" in out


def test_scan_json_output_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--mode", "conj:C2_1", "--k", "4", "--family", "positive",
        "--max", "11", "--json",
    )
    assert code == 0
    assert canonical_json(json.loads(out)) == out
