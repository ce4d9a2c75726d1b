import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import bound_one_above, overcounting
from sumsets import bounds, cli, core, errors, explorer
from sumsets.cli import main
from sumsets.core import canonical_json
from sumsets.witness import EQUAL, LESS, WitnessElement, WitnessFamily


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
    # a set that starts at 0 gets the contains-zero chains; no flag says so
    code, out, _ = run(capsys, "witness", "--set", "0,1,2", "--h", "2")
    assert code == 0
    assert '"zero_in_a": true' in out
    assert json.loads(out)["all_ok"]


def test_witness_full_fold_appends_the_u_family(capsys):
    code, out, _ = run(capsys, "witness", "--set", "1,2,4", "--h", "3")
    assert code == 0
    payload = json.loads(out)
    assert [f["name"] for f in payload["families"]] == ["s", "t", "u"]
    assert payload["all_ok"] and payload["zero_in_a"] is False


def test_witness_false_claims_exit_2(capsys, monkeypatch):
    # 5, 3 and 6 are all in 2^±{1,2,4,8}, so only the two claims are false
    chain = WitnessFamily("s", 2, (
        WitnessElement("a", 5, LESS), WitnessElement("b", 3, EQUAL),
        WitnessElement("c", 6, None),
    ), expected_distinct=3)
    monkeypatch.setattr(cli, "s_family", lambda a, h: chain)
    code, out, _ = run(capsys, "witness", "--set", "1,2,4,8", "--h", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["families"][0] == {
        "name": "s",
        "elements": [
            {"label": "a", "value": 5, "relation_to_next": "<"},
            {"label": "b", "value": 3, "relation_to_next": "="},
            {"label": "c", "value": 6, "relation_to_next": None},
        ],
        "chain_ok": False,
        "broken_links": ["a < b", "b = c"],
        "distinct": 3,
        "expected_distinct": 3,
        "missing_members": [],
        "ok": False,
    }
    assert payload["families"][1]["ok"] and not payload["all_ok"]


@pytest.mark.parametrize("flag", ["--zero-in-a", "--json"])
def test_witness_removed_options_are_usage_errors(capsys, flag):
    code, _, err = run(capsys, "witness", "--set", "0,1,2", "--h", "2", flag)
    assert code == 64 and f"unrecognized arguments: {flag}" in err


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


def test_classify_command_plain(capsys):
    code, out, _ = run(capsys, "classify", "--set", "3,9,15,21", "--h", "2")
    assert code == 0
    assert out.splitlines() == [
        "set 3,9,15,21 h 2: theorem T2_2",
        "cardinality 12 bound 12",
        "equality True",
        "family OddAP params {'k': 4, 'd': 3}",
        "consistent True",
    ]
    code, out, _ = run(capsys, "classify", "--set", "1,2,3,4,5,6,7", "--h", "4")
    assert code == 0
    assert out.splitlines() == [
        "set 1,2,3,4,5,6,7 h 4: not covered by a proven inverse theorem",
        "cardinality 45",
    ]


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


@pytest.mark.parametrize("literal", [
    "--set=2147483648,4294967296",  # the engine runs it as {1, 2}
    f"--set={5 * 10**4299},{6 * 10**4299}",  # its mask size has 4301 digits
], ids=["dilated", "4300-digit"])
def test_compute_layered_budget_reads_the_raw_magnitude(capsys, literal):
    code, _, err = run(capsys, "compute", literal, "--h", "2", "--kind", "signed")
    assert code == 65 and "bits" in err


def test_compute_naive_huge_fold_exits_65(capsys):
    code, _, err = run(capsys, "compute", "--set", "1,2", "--h", str(10**15),
                       "--kind", "unrestricted", "--engine", "naive")
    assert code == 65 and "terms" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_compute_naive_huge_magnitude_exits_65(capsys, json_flag):
    # without the oracle's magnitude guard this input computes, then dies
    # printing a sum past Python's 4300-digit int-to-decimal limit (exit 1)
    literal = f"--set={5 * 10**4299},{6 * 10**4299}"
    code, _, err = run(capsys, "compute", literal, "--h", "2", "--engine", "naive",
                       *json_flag)
    assert code == 65 and "exceeds 2^62" in err


def test_scan_fold_range_refused_before_it_is_listed(capsys):
    # a range past k fails as a domain error at its first fold past k
    code, _, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "4",
                       "--max", "20", "--h", "1-99999999999999999999")
    assert code == 65 and err == "error: fold 5 invalid for verify:T2_1 at k=4\n"


@pytest.mark.parametrize("fold, code, message", [
    # a range that runs backwards is malformed, not out of range
    ("5-3", 64, "usage error: malformed fold range: '5-3' runs backwards"),
    ("2-9", 65, "error: fold 7 invalid for verify:T2_1 at k=6"),
])
def test_scan_fold_range_errors(capsys, fold, code, message):
    result, _, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "6",
                         "--max", "20", "--h", fold)
    assert (result, err) == (code, message + "\n")


@pytest.mark.parametrize("mode, fold", [
    ("verify:T2_1", "2-9"), ("verify:T2_4", "2"), ("conj:C2_1", "1-2"),
    ("verify:TA_Nathanson", "0"),
])
def test_scan_folds_are_refused_by_the_library_alone(capsys, mode, fold):
    # the CLI only parses --h: a fold outside the target's is refused by the
    # scan, with the text the same ScanConfig gets from the library
    lo, _, hi = fold.partition("-")
    config = explorer.ScanConfig(6, 14, core.SetFamily.POSITIVE, explorer.parse_mode(mode),
                                 h_values=range(int(lo), int(hi or lo) + 1))
    with pytest.raises(errors.NotApplicable) as refused:
        explorer.scan(config)
    code, out, err = run(capsys, "scan", "--mode", mode, "--k", "6", "--max", "14",
                         "--h", fold)
    assert (code, out, err) == (65, "", f"error: {refused.value}\n")


def test_scan_frame_budget_refused_before_partitioning(capsys):
    # the scan sizes every DP mask by --max: 3 layers of 4*10^10 + 1 bits
    code, _, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "2",
                       "--max", str(10**10))
    assert code == 65 and "bits" in err


@pytest.mark.parametrize("argv", [
    # 16 kB of values: the pipe breaks inside print
    ["compute", "--set", "1,2,4,8,16,32,64,128,256,512,1024", "--h", "5"],
    # two short lines, still buffered when the command returns
    ["compute", "--set", "1,3,5", "--h", "2"],
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # `| head -c 10` once head has exited: stdout is a pipe with no reader,
    # so the first write fails; the CLI exits with the code a shell reports
    # for SIGPIPE, not with a BrokenPipeError traceback
    child = "import sys; from sumsets.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv], env=env, stdout=write,
            stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


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


def test_scan_of_a_huge_k_refused_before_listing_its_folds():
    # k = 10^8 folds, the mode's default or a --h range, would exhaust a 400
    # MB address space (MemoryError, exit 1); no scan of k > 2^16 passes
    # the layered budget, even at h = 1
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        for mode, h in (("verify:T2_1", []), ("verify:T2_1", ["--h", "1"]),
                        ("verify:T2_1", ["--h", "1-100000000"]), ("conj:C2_1", [])):
            code = main(["scan", "--mode", mode, "--k", "100000000",
                         "--max", "200000000", *h])
            if code != 65:
                sys.exit(code or 1)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("layered DP needs 99999999 x (h+1)*(2h*max|a_i|+1) bits") == 4


def test_compute_wide_sparse_set_reads_its_values_in_bounded_memory():
    # {1, 10^8} passes the layered budget with a 25 MB mask of 2*10^8 + 1
    # bits; text for the whole mask, a byte per bit, would take 200 MB and
    # run out of a 400 MB address space (MemoryError, exit 1)
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        sys.exit(main(["compute", "--set", "1,100000000", "--h", "1",
                       "--kind", "signed", "--json"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"] == [-10**8, -1, 1, 10**8]


def test_compute_naive_unrestricted_one_element_at_the_largest_fold():
    # one element admits h = 2^27 (one vector of h terms, the oracle budget);
    # a tuple of its h copies would take about 2 GB
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        sys.exit(main(["compute", "--set", "3", "--h", str(2**27), "--kind",
                       "unrestricted", "--engine", "naive", "--json"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"] == [3 * 2**27]


def test_compute_naive_signed_one_element_at_the_largest_fold():
    # one element admits h = 2^26 (2h terms, the oracle budget); listing the
    # h - 1 cut points of its compositions would take about 2.6 GB
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        sys.exit(main(["compute", "--set", "3", "--h", str(2**26), "--kind",
                       "signed", "--engine", "naive", "--json"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["values"] == [-3 * 2**26, 3 * 2**26]


def test_compute_unbounded_kinds_at_large_folds_in_bounded_time_and_memory():
    # a DP that shifts layer j once per copy count c <= j takes O(k*h^2)
    # shifts, minutes for {1,2} at h = 20000.  {0} has frame 0, so the
    # layered budget admits h = 10^8, and a list of its h + 1 layers would
    # exhaust a 400 MB address space (MemoryError, exit 1).  On timeout
    # subprocess.run kills the child before it raises
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))
        from sumsets.cli import main
        for raw, h in (("1,2", "20000"), ("0", "100000000")):
            for kind in ("signed", "unrestricted"):
                code = main(["compute", "--set", raw, "--h", h, "--kind", kind])
                if code:
                    sys.exit(code)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    cards = [line for line in proc.stdout.splitlines() if line.startswith("cardinality")]
    # signed {1,2}: [h, 2h], 3t - h for 0 < t < 2h/3, and their mirrors;
    # unrestricted {1,2}: [h, 2h]
    assert cards == ["cardinality 66668", "cardinality 20001", "cardinality 1", "cardinality 1"]


def test_scan_walk_layer_copies_budgeted_before_walking():
    # the walk holds a stacked DP int per tree level: at k=1100 one int of
    # (h+1)*(2h*max+1) bits passes the frame budget, but the 1,099 ints of
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


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_scan_unwritable_report_path_is_a_usage_error(capsys, monkeypatch, tmp_path, flag):
    def no_scan(config):
        raise AssertionError("scanned before checking the report path")

    monkeypatch.setattr(cli, "scan", no_scan)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "3",
                             "--max", "8", flag, str(path))
        assert code == 64 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert flag in err and str(path) in err


def test_scan_out_and_csv_naming_one_file_is_a_usage_error(capsys, monkeypatch, tmp_path):
    def no_scan(config):
        raise AssertionError("scanned before checking the report paths")

    monkeypatch.setattr(cli, "scan", no_scan)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for out_path, csv_path in (("r.json", "./r.json"), ("r.json", "sub/../r.json"),
                               (str(tmp_path / "r.json"), "r.json")):
        code, out, err = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "2",
                             "--max", "3", "--out", out_path, "--csv", csv_path)
        assert code == 64 and out == ""
        assert err == f"usage error: --out and --csv name one file, {out_path!r}\n"
    assert not (tmp_path / "r.json").exists()


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


def test_scan_engine_mismatch_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "sumset_naive", overcounting(bounds.sumset_naive))
    code, _, err = run(
        capsys,
        "scan", "--mode", "conj:C2_1", "--k", "4", "--family", "positive",
        "--max", "10",
    )
    assert code == 2
    assert err == (
        "theorem violation: [partition (1, 3)] engines disagree on 1,3,5,7, "
        "h=3: 16 vs 17\n"
    )


def test_scan_json_output_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--mode", "conj:C2_1", "--k", "4", "--family", "positive",
        "--max", "11", "--json",
    )
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_scan_out_and_json_serialize_the_report_once(capsys, monkeypatch, tmp_path):
    calls = []
    to_json = explorer.ScanReport.to_json

    def spy(report):
        calls.append(report)
        return to_json(report)

    monkeypatch.setattr(explorer.ScanReport, "to_json", spy)
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "scan", "--mode", "verify:T2_1", "--k", "3", "--max", "9",
        "--out", str(out_path), "--json",
    )
    assert code == 0
    assert len(calls) == 1
    assert out_path.read_text() == out
    assert json.loads(out)["equalities"]


def test_scan_family_defaults_to_the_target_family(capsys):
    # C3_1 is a contains-zero conjecture: no --family needed
    code, out, _ = run(capsys, "scan", "--mode", "conj:C3_1", "--k", "5",
                       "--max", "13", "--json")
    assert code == 3
    code, explicit, _ = run(capsys, "scan", "--mode", "conj:C3_1", "--k", "5",
                            "--family", "contains-zero", "--max", "13", "--json")
    assert code == 3

    def fingerprint(text):
        report = json.loads(text)
        del report["wall_time"]
        return canonical_json(report)

    assert fingerprint(out) == fingerprint(explicit)
    # TA_Nathanson holds for any set and scans positive ones by default
    code, out, _ = run(capsys, "scan", "--mode", "verify:TA_Nathanson", "--k", "3",
                       "--max", "6")
    assert code == 0 and out.startswith("mode verify:TA_Nathanson k=3 family=positive")
    # an explicit family still has to fit the target
    code, _, err = run(capsys, "scan", "--mode", "verify:T3_1", "--k", "4",
                       "--family", "positive", "--max", "10")
    assert code == 65 and "T3_1 applies to contains-zero sets" in err


def test_scan_fold_range(capsys):
    code, out, _ = run(capsys, "scan", "--mode", "verify:T2_1", "--k", "5",
                       "--max", "9", "--h", "3-5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["h"] == [3, 4, 5]
    assert report["sets_scanned"] == 126
    assert report["equalities"] == [
        {"set": "1,2,3,4,5", "h": 5, "cardinality": 16, "bound": 16}
    ]


@pytest.mark.parametrize("argv, counterexample, equalities", [
    # equalities, one of them with no family, and a classification failure
    (["--mode", "conj:C3_1", "--k", "5", "--max", "13"], None, 3),
    # a bound counterexample where the equality was
    (["--mode", "conj:C2_1", "--k", "4", "--max", "7"], "C2_1", 0),
])
def test_scan_text_builds_each_record_kind_once(capsys, monkeypatch, argv, counterexample,
                                                equalities):
    if counterexample:
        bound_one_above(monkeypatch, counterexample)
    built = []
    dicts = core.Table.dicts

    def spy(table):
        built.append(table.keys)
        return dicts(table)

    monkeypatch.setattr(core.Table, "dicts", spy)
    code, out, _ = run(capsys, "scan", *argv)
    assert code == 3
    assert len(built) == len(set(built)) == 3, built
    assert out.splitlines()[2] == f"equalities {equalities}"


def test_scan_bound_counterexample_exit_3(capsys, monkeypatch):
    bound_one_above(monkeypatch, "C2_1")
    code, out, _ = run(capsys, "scan", "--mode", "conj:C2_1", "--k", "4",
                       "--max", "7")
    assert code == 3
    assert ("  BOUND COUNTEREXAMPLE 1,3,5,7 h=3 cardinality=16 < bound=17 "
            "naive_cardinality=16") in out.splitlines()

