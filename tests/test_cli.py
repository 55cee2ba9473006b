import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invsg import core, pbij
from invsg.cli import main


@pytest.fixture
def carrier_file(tmp_path):
    p = tmp_path / "c2.json"
    p.write_text(json.dumps({"n": 2, "table": [[0, 1], [1, 0]], "names": ["e", "g"]}))
    return str(p)


def test_validate_trivial_table(tmp_path, capsys):
    p = tmp_path / "trivial.json"
    p.write_text(json.dumps({"n": 1, "table": [[0]]}))
    assert main(["validate", str(p)]) == 0


def test_validate_ok(carrier_file, capsys):
    assert main(["validate", carrier_file, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["inv"] == [0, 1] and out["identity"] == 0


def test_validate_rejects_bad_table(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "table": [[0, 0], [0, 0]]}))
    assert main(["validate", str(p)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_enumerate_streams_valid_carriers(capsys):
    assert main(["enumerate", "--ground", "2", "--max-order", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        S = core.from_json(json.loads(line))
        assert S.n <= 7


def test_enumerate_limit_exit_code(capsys):
    assert main(["enumerate", "--ground", "4", "--max-order", "2"]) == 3


def test_classify_rotation_json(capsys):
    assert main(["classify", "--family", "rotation", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["reduced"]["value"] is True
    assert rec["mirror"]["value"] is True
    assert rec["continuous"]["value"] is True
    assert rec["algebraic"]["value"] is False
    assert rec["stably_continuous"]["value"] is True


def test_classify_unknown_family(capsys):
    assert main(["classify", "--family", "nope"]) == 2


def test_check_all_on_cex_exits_one(capsys):
    assert main(["check", "--suite", "all", "--subject", "family:cex",
                 "--json", "--budget", "400"]) == 1
    reports = json.loads(capsys.readouterr().out)
    by_suite = {r["suite"]: r for r in reports}
    assert by_suite["mirror"]["verdict"] == "fail"
    ce = by_suite["mirror"]["counterexample"]
    assert ce["chain"] == "unit-interval-chain"
    assert set(ce["upper_bounds"]) == {"1", "omega"}
    # not-applicable is reported distinctly but does not flip the exit code
    assert by_suite["mirror_theorem"]["verdict"] == "not-applicable"


def test_check_single_suite_pass(carrier_file):
    assert main(["check", "--suite", "mirror", "--subject", carrier_file]) == 0


def test_check_unknown_inputs(capsys):
    # an unknown suite is refused before any suite runs; no message is quoted
    for argv in (["check", "--suite", "mirror", "--subject", "family:nope"],
                 ["check", "--suite", "mirror", "--subject", "coset:nope"],
                 ["check", "--suite", "nope", "--subject", "family:cex"],
                 ["classify", "--family", "nope"],
                 ["hasse", "--subject", "family:nope"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: unknown"), (argv, captured.err)
        assert not captured.err.startswith('invalid: "'), (argv, captured.err)


def test_check_coset_subject(capsys):
    assert main(["check", "--suite", "mirror", "--subject", "coset:C2"]) == 0


def test_hasse_finite(carrier_file, tmp_path, capsys):
    out = tmp_path / "h.dot"
    assert main(["hasse", "--subject", carrier_file, "--out", str(out)]) == 0
    dot = out.read_text()
    assert dot.startswith("digraph hasse {") and '"e"' in dot


def test_hasse_family_window(capsys):
    assert main(["hasse", "--subject", "family:bicyclic-nat", "--window", "12"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("[label=") == 12
    assert dot.strip().endswith("}")


def test_hasse_window_limit(tmp_path, capsys):
    # a carrier bigger than the window is refused with the limit exit code
    from invsg import pbij
    p = tmp_path / "i3.json"
    p.write_text(json.dumps(core.to_json(pbij.symmetric_inverse_monoid(3).carrier)))
    assert main(["hasse", "--subject", str(p), "--window", "10"]) == 3


def _assert_one_line_refusal(capsys):
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_hasse_unwritable_out_is_invalid(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.dot"
    assert main(["hasse", "--subject", "coset:C2", "--out", str(out)]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_check_rejects_nonpositive_budget(budget, capsys):
    assert main(["check", "--suite", "mirror", "--subject", "family:rotation",
                 "--budget", budget]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_check_rejects_nonpositive_depth(depth, capsys):
    assert main(["check", "--suite", "mirror", "--subject", "family:rotation",
                 "--depth", depth]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_classify_rejects_nonpositive_depth(depth, capsys):
    assert main(["classify", "--family", "rotation", "--depth", depth]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("window", ["0", "-1"])
@pytest.mark.parametrize("subject", ["family:rotation", "coset:C2"])
def test_hasse_rejects_nonpositive_window(subject, window, capsys):
    assert main(["hasse", "--subject", subject, "--window", window]) == 2
    _assert_one_line_refusal(capsys)


# before: --ground exited 3 with a false size-limit message, --max-order
# streamed nothing and exited 0
@pytest.mark.parametrize("ground, max_order", [("0", "4"), ("-2", "4"),
                                               ("2", "0"), ("2", "-3")])
def test_enumerate_rejects_nonpositive_limits(ground, max_order, capsys):
    assert main(["enumerate", "--ground", ground, "--max-order", max_order]) == 2
    _assert_one_line_refusal(capsys)


# each would crash, or validate after int() truncated or converted an entry
MALFORMED_CARRIERS = [
    {"table": 5},
    {"table": [[0]], "names": 5},
    {"table": [[0.7]]},
    {"table": [[0, 0], [0, 1.9]]},
    {"table": [[0, 0], [0, True]]},
    {"table": [[0]], "names": [7]},
    {"n": [1], "table": [[0]]},
]


@pytest.mark.parametrize("argv", [["validate"], ["check", "--subject"],
                                  ["hasse", "--subject"]])
@pytest.mark.parametrize("obj", MALFORMED_CARRIERS)
def test_malformed_carrier_json_is_invalid(obj, argv, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    assert main(argv + [str(p)]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("argv", [["validate", "{}"], ["check", "--subject", "{}"],
                                  ["check", "--subject", "characters:{}"]])
def test_deeply_nested_carrier_json_is_invalid(argv, tmp_path, capsys):
    # json raises RecursionError on this, which must not escape as a traceback
    # with exit 1, the code for a failed law
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000)
    assert main([a.format(p) for a in argv]) == 2
    _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("family, depth", [
    (fam, depth) for fam in ("rotation", "bicyclic-nat", "bicyclic-dyadic")
    for depth in (1, 2, 4)])
def test_small_depth_gives_no_false_fail(family, depth, capsys):
    # a fail that rests on a missing chain member is confirmed at depth >= 64;
    # judged at the given depth alone, these cases failed mirror (depth 1) or
    # a way-below claim (depths 2 and 4), and none replayed
    assert main(["check", "--suite", "all", "--subject", f"family:{family}",
                 "--depth", str(depth), "--budget", "1000", "--json"]) == 0, \
        [r for r in json.loads(capsys.readouterr().out) if r["verdict"] == "fail"]


def test_cex_still_fails_mirror_at_depth_one(capsys):
    assert main(["check", "--suite", "all", "--subject", "family:cex",
                 "--depth", "1", "--budget", "1000", "--json"]) == 1
    fails = [r for r in json.loads(capsys.readouterr().out) if r["verdict"] == "fail"]
    assert [r["suite"] for r in fails] == ["mirror"]
    assert fails[0]["counterexample"]["chain"] == "unit-interval-chain"


def test_classify_json_is_reproducible(capsys):
    outs = []
    for _ in range(2):
        assert main(["classify", "--family", "cex", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "_raw" not in outs[0]
    assert json.loads(outs[0])["mirror"]["witness"]["chain"] == "unit-interval-chain"


NO_NUMPY = """
import sys
sys.modules["numpy"] = None          # any import of numpy now raises ImportError
from invsg import cli, core, pbij
core.validate(pbij.symmetric_inverse_monoid(4).carrier.table)
raise SystemExit(cli.main(["check", "--suite", "all", "--subject", "coset:D4", "--json"]))
"""


def test_runs_without_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "invsg", "check", "--subject", "coset:S5"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("invalid: ") and "Traceback" not in done.stderr


def test_carrier_reports_do_not_depend_on_the_file_path(tmp_path, capsys):
    # I_3 has 34 elements, so sigma_sup and conditional_distributivity sample
    # subsets; the sample is seeded by the seed and the suite, not the path
    blob = json.dumps(core.to_json(pbij.symmetric_inverse_monoid(3).carrier))
    reports = []
    for path in (tmp_path / "I_3.json", tmp_path / "elsewhere" / "copy.json"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(blob)
        assert main(["check", "--suite", "all", "--subject", str(path), "--json"]) == 0
        reports.append([{k: v for k, v in r.items() if k != "subject"}
                        for r in json.loads(capsys.readouterr().out)])
    assert reports[0] == reports[1]
