"""Fuzzed command lines: any argv and any carrier file end with an exit code.

Random argv over the five subcommands, and random carrier JSON (wrong types,
nesting, malformed text, a few valid tables), go through ``cli.main`` in
process.  Every run must return 0, 1, 2 or 3 (argparse's ``SystemExit(2)``
counts as 2, and ``--help`` exits 0) and print no traceback.  Budgets stay at
most 50 and depths at most 8, so that each run is cheap.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from invsg.cli import main

CARRIER, MISSING = "CARRIER", "MISSING"  # replaced by file paths in each run


def number(lo: int, hi: int):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["", "x", "1.5"]))


SUBJECTS = st.sampled_from([
    "family:bicyclic-nat", "family:bicyclic-dyadic", "family:rotation", "family:cex",
    "family:none", "coset:C2", "coset:C2xC2", "coset:none", f"characters:{CARRIER}",
    CARRIER, MISSING])
FAMILIES = st.sampled_from(["bicyclic-nat", "rotation", "cex", "coset:C3", "none",
                            f"characters:{CARRIER}", f"characters:{MISSING}"])

# per subcommand: (option, value strategy or None for a switch, always given)
OPTIONS = {
    "validate": [("", st.sampled_from([CARRIER, MISSING]), False), ("--json", None, False)],
    "enumerate": [("--ground", st.sampled_from(["-1", "0", "1", "2", "4", "x"]), False),
                  ("--max-order", number(-1, 11), False)],
    "classify": [("--family", FAMILIES, False), ("--depth", number(-2, 8), True),
                 ("--seed", number(-5, 99), False), ("--json", None, False)],
    "check": [("--suite", st.sampled_from(["all", "mirror", "basic_rules", "none"]), False),
              ("--subject", SUBJECTS, False), ("--depth", number(-2, 8), True),
              ("--budget", number(-2, 50), True), ("--seed", number(-5, 99), False),
              ("--json", None, False)],
    "hasse": [("--subject", SUBJECTS, False), ("--window", number(-2, 12), False),
              ("--seed", number(-5, 99), False), ("--out", st.just("-"), False)],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values, always in OPTIONS[command]:
        if not (always or draw(st.booleans())):
            continue
        if values is None:
            argv.append(option)
        else:
            argv += [option, draw(values)] if option else [draw(values)]
    if draw(st.integers(0, 9)) == 0:  # a stray token now and then
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ["--help", "--nope", "extra", "--json", "--depth"])))
    return argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12)
TABLES = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, n), min_size=n, max_size=n), min_size=n, max_size=n))
VALID = [{"table": [[0]]}, {"table": [[0, 1], [1, 0]], "names": ["e", "g"]},
         {"n": 2, "table": [[0, 0], [0, 1]]}]
CARRIERS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.builds(lambda table, extra: json.dumps({"table": table, **extra}), TABLES,
              st.sampled_from([{}, {"n": 2}, {"names": ["a", "b", "c"]}, {"names": 4}])),
    st.dictionaries(st.sampled_from(["n", "table", "names"]), JSON_VALUES).map(json.dumps),
    st.sampled_from(VALID).map(json.dumps),
    st.text(max_size=12))

DEEP = "[" * 200000 + "]" * 200000


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), carrier=CARRIERS)
@example(argv=["validate", CARRIER], carrier=DEEP)
@example(argv=["check", "--subject", CARRIER, "--depth", "8", "--budget", "50"], carrier=DEEP)
@example(argv=["check", "--subject", f"characters:{CARRIER}", "--depth", "8",
               "--budget", "50"], carrier=DEEP)
def test_any_command_line_ends_with_an_exit_code(argv, carrier):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "carrier.json"
        path.write_text(carrier, encoding="utf-8")
        argv = [a.replace(CARRIER, str(path)).replace(MISSING, str(Path(tmp) / "none.json"))
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: 2 on a bad argv, 0 on --help
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
