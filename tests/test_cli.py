import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from sparseknap import CoverClass, compute_lifting, load_instance, separate
from sparseknap.cli import build_parser
from sparseknap.oracle import maximal_indep_bruteforce

from conftest import LOSSY_INSTANCES

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
SRC = ROOT / "src"


def run_python(*args, cwd=None):
    # the package is imported from this checkout's src, whatever the caller's path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "sparseknap", *args, cwd=cwd)


def test_covers_fixture_two_lines():
    proc = run_cli("covers", str(FIXTURES / "w35.json"))
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert {tuple(r["tuple"]) for r in records} == {(2, 1), (0, 2)}
    assert all(r["rhs"] == sum(r["tuple"]) - 1 for r in records)


def test_covers_pretty_mode():
    proc = run_cli("covers", str(FIXTURES / "w35.json"), "--pretty")
    assert proc.returncode == 0
    assert "weight=" in proc.stdout


def test_missing_file_is_data_error():
    proc = run_cli("covers", "no_such_file.json")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_usage_error_exit_code():
    proc = run_cli("covers")
    assert proc.returncode == 1
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_cuts_stream():
    proc = run_cli("cuts", str(FIXTURES / "w35.json"))
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert all(set(r) == {"cover", "indep", "exact"} for r in records)
    assert any(r["cover"] == [2, 1] for r in records)


@pytest.mark.parametrize("weights, capacity", LOSSY_INSTANCES)
def test_cuts_lists_maximal_classes_on_lossy_covers(tmp_path, weights, capacity):
    inst = tmp_path / "lossy.json"
    inst.write_text(json.dumps({"weights": list(weights), "capacity": capacity}))
    proc = run_cli("cuts", str(inst))
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert any(not r["exact"] for r in records), "the fallback must run"
    rows = defaultdict(list)
    for r in records:
        rows[tuple(r["cover"])].append(tuple(r["indep"]))
    k, _ = load_instance(str(inst))
    wc = k.classes()
    for cover, tuples in rows.items():
        lift = compute_lifting(CoverClass(cover), wc, k.capacity)
        assert sorted(tuples) == sorted(maximal_indep_bruteforce(cover, lift, wc)), cover
    assert len(records) == separate(k, [0] * k.n).classes_scanned


def test_separate_output_and_determinism():
    args = ("separate", str(FIXTURES / "w35.json"), str(FIXTURES / "w35_point.json"))
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical data output
    cuts = json.loads(first.stdout)
    assert cuts[0]["coeffs"] == [1, 1, 1, 1]
    assert cuts[0]["rhs"] == 2
    assert abs(cuts[0]["violation"] - 0.8) < 1e-9
    assert set(cuts[0]) == {"coeffs", "rhs", "violation", "cover", "indep", "gub", "exact"}


def test_separate_respects_max_cuts():
    proc = run_cli(
        "separate",
        str(FIXTURES / "w35.json"),
        str(FIXTURES / "w35_point.json"),
        "--max-cuts",
        "1",
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 1
    assert "truncated" in proc.stderr


def test_separate_with_gub_instance(tmp_path):
    inst = tmp_path / "gub.json"
    inst.write_text(json.dumps({"weights": [1, 1, 1, 2], "capacity": 2, "gubs": [[1, 2], [3], [4]]}))
    point = tmp_path / "point.json"
    point.write_text(json.dumps([0.55, 0.0, 0.55, 0.6]))
    with_gub = run_cli("separate", str(inst), str(point))
    without = run_cli("separate", str(inst), str(point), "--no-gub")
    assert with_gub.returncode == 0 and without.returncode == 0
    assert any(c["gub"] for c in json.loads(with_gub.stdout))
    assert not any(c["gub"] for c in json.loads(without.stdout))


def test_ef_writes_lp(tmp_path):
    out = tmp_path / "model.lp"
    proc = run_cli(
        "ef",
        str(FIXTURES / "w35.json"),
        "--cover",
        "2,1",
        "--indep",
        "0,0",
        "-o",
        str(out),
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("\\ class_ef_oddeven")
    assert "lifted_cover:" in text and text.rstrip().endswith("End")


def test_orbisack_ef_writes_lp(tmp_path):
    out = tmp_path / "orb.lp"
    proc = run_cli("orbisack-ef", "--n", "4", "--max-rows", "2", "-o", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert "lex2:" in text and "lex3:" not in text


def test_verify_passes_on_fixture():
    proc = run_cli("verify", str(FIXTURES / "w35.json"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert all(check["ok"] for check in report["checks"])
    pretty = run_cli("verify", str(FIXTURES / "w35.json"), "--pretty")
    assert pretty.returncode == 0
    assert "PASS network-replay" in pretty.stdout


def test_verify_checks_every_cover_on_lossy_instance(tmp_path):
    # the jump search prunes lossily on some covers of this instance; the
    # completeness check must still compare all seven with the oracle
    weights, capacity = LOSSY_INSTANCES[0]
    inst = tmp_path / "lossy.json"
    inst.write_text(json.dumps({"weights": list(weights), "capacity": capacity}))
    proc = run_cli("verify", str(inst))
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["indep-complete"]["ok"] is True
    assert checks["indep-complete"]["detail"] == "maximal classes match oracle on 7 covers"


def test_covers_reverse_flag_controls_order():
    auto = run_cli("covers", str(FIXTURES / "w35.json"))
    forward = run_cli("covers", str(FIXTURES / "w35.json"), "--reverse", "off")
    backward = run_cli("covers", str(FIXTURES / "w35.json"), "--reverse", "on")
    first = lambda proc: json.loads(proc.stdout.splitlines()[0])["tuple"]
    assert first(forward) == [2, 1]
    assert first(backward) == [0, 2]
    assert auto.stdout == backward.stdout  # items weigh at most twice the capacity


def test_verify_accepts_instance_with_groups(tmp_path):
    inst = tmp_path / "gub.json"
    inst.write_text(
        json.dumps({"weights": [1, 1, 1, 2], "capacity": 2, "gubs": [[1, 2], [3], [4]]})
    )
    proc = run_cli("verify", str(inst))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_refuses_oversized_instance(tmp_path):
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({"weights": [1] * 20, "capacity": 10}))
    proc = run_cli("verify", str(inst))
    assert proc.returncode == 3
    assert "refused" in proc.stderr


@pytest.mark.parametrize(
    "point_text",
    ["[0.5, Infinity, 0.5, 0.5]", "[0.5, true, 0.5, 0.5]", '["0.5", "1/2", "0.9", "0.7"]'],
)
def test_separate_rejects_non_numeric_point_entries(tmp_path, point_text):
    point = tmp_path / "point.json"
    point.write_text(point_text)
    proc = run_cli("separate", str(FIXTURES / "w35.json"), str(point))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_separate_tolerance_is_parsed_exactly():
    args = build_parser().parse_args(["separate", "inst.json", "point.json", "--tolerance", "1e-3"])
    assert args.tolerance == Fraction(1, 1000)


@pytest.mark.parametrize("value", ["0", "-1e-3", "abc", "1/0", "nan"])
def test_separate_bad_tolerance_is_usage_error(value):
    proc = run_cli(
        "separate",
        str(FIXTURES / "w35.json"),
        str(FIXTURES / "w35_point.json"),
        f"--tolerance={value}",
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "extra",
    [("--max-cuts", "-1"), ("--reverse", "on"), ("--deadline-ms", "-1")],
    ids=["negative-max-cuts", "reverse", "negative-deadline"],
)
def test_separate_bad_option_is_usage_error(extra):
    proc = run_cli(
        "separate", str(FIXTURES / "w35.json"), str(FIXTURES / "w35_point.json"), *extra
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
