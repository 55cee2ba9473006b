"""Every function in ``src/invsg`` is reached, exempt by rule, or allowlisted.

``src`` holds what a verdict, the CLI or the documented API reaches; a
function that only tests call belongs in ``tests/``.  The gate runs the
roots below in a fresh interpreter, which is this file run as a script, with
``sys.setprofile`` installed before ``import invsg`` so that calls made at
import time count.  It then lists every module-level function and method
in ``src/invsg`` (by its ``def``, read from the source) and fails on each one
that no root called and no rule or allowlist entry exempts, naming it.

The roots are every CLI verb on small subjects, one invalid input per verb,
the library calls of ``perfbench/workloads.py`` in small form, and a replay
of the ``cex`` mirror fail.  The rules exempt dunder methods, exception
classes and the API: ``invsg.__all__``, the public members of its classes,
and the names the README documents (``README_API``).

Run ``python tests/test_reach.py`` to print the reached ``(file, line)``
pairs as JSON.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "invsg"

# Library names the README documents beyond invsg.__all__, each as
# "<module>.<qualname>"; every one must appear in the README.  As for the
# classes of invsg.__all__, the public members of a class here are exempt.
README_API = (
    "families.cex.cex_family",
    "checkers.check_mirror",
    "checkers.classify",
    "checkers.replay_counterexample",
    "checkers.CheckReport",
    "checkers.Flag",
    "checkers.Classification",
    "families.base.chain_to",
    "families.base.finite_chain",
    "core.generated",
    "core.inverse_subsemigroups",
    "core.tabulate",
)

# Functions that no root reaches but that stay in src, each with its reason.
ALLOWLIST = {
    # perfbench/tracing.py patches these by attribute, and
    # perfbench/test_perfbench.py reads poset.sup; they leave src with the
    # benchmark change that retires those per-layer metrics.
    "poset.sup": "patched by the perfbench tracer",
    "poset.directed_subsets": "patched by the perfbench tracer",
    "poset._subset_count": "the size guard of poset.directed_subsets",
    "poset.way_below_matrix": "patched by the perfbench tracer",
    # Hypothesis tails: a law tests its hypothesis after its conclusion, so
    # only a violated conclusion reaches them; tests/test_replay.py covers them.
    "checkers._on_chain": "hypothesis tail, reached by a violated chain law",
    "checkers._mirror_theorem_violated":
        "the law of a mirror-theorem failure, reached only when one replays",
}


# -- the roots (run in the child interpreter) --------------------------------


def _cli_roots(work: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every verb: small subjects and one
    invalid input each."""
    carrier = work / "semilattice.json"
    carrier.write_text(json.dumps({"n": 2, "table": [[0, 0], [0, 1]]}), encoding="utf-8")
    broken = work / "broken.json"
    broken.write_text(json.dumps({"n": 2, "table": [[0, 0], [0, 0]]}), encoding="utf-8")
    chars = f"characters:{carrier}"
    small = ["--depth", "4", "--budget", "50"]
    roots = [
        (["validate", str(carrier)], 0),
        (["validate", "--json", str(carrier)], 0),
        (["validate", str(broken)], 2),
        (["enumerate", "--ground", "2", "--max-order", "4"], 0),
        (["enumerate", "--ground", "0", "--max-order", "4"], 2),
        (["classify", "--family", "coset:C2"], 0),
        (["classify", "--family", chars, "--depth", "4", "--json"], 0),
        (["classify", "--family", "no-such-family"], 2),
        (["check", "--subject", str(carrier), "--budget", "50"], 0),
        (["check", "--subject", "coset:C2", "--json", "--budget", "50"], 0),
        (["check", "--subject", chars, *small], 0),
        (["check", "--subject", "coset:C2", "--suite", "no-such-suite"], 2),
        (["hasse", "--subject", str(carrier)], 0),
        (["hasse", "--subject", "coset:C2", "--out", str(work / "c2.dot")], 0),
        (["hasse", "--subject", "family:bicyclic-nat", "--window", "6"], 0),
        (["hasse", "--subject", str(work / "missing.json")], 2),
    ]
    for name in ("bicyclic-nat", "bicyclic-dyadic", "rotation", "cex"):
        code = 1 if name == "cex" else 0
        roots.append((["check", "--subject", f"family:{name}", *small], code))
        roots.append((["classify", "--family", name, "--depth", "4"], 0))
    roots.append((["check", "--subject", "family:cex", "--json", *small], 1))
    return roots


def _run_roots(work: Path) -> None:
    """Import invsg and run every root; a root that exits with another code
    than expected, or a replay that does not confirm, raises."""
    from invsg import checkers, cli, core, families, pbij

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, expected in _cli_roots(work):
            code = cli.main(argv)
            if code != expected:
                raise AssertionError(f"invsg {' '.join(argv)} exited {code}, "
                                     f"not {expected}")
    # the library calls of perfbench/workloads.py, in small form
    for S in pbij.enumerate_inverse_subsemigroups(2, 4):
        core.to_json(S)
    core.to_json(pbij.symmetric_inverse_monoid(2).carrier)
    core.to_json(families.cex_truncation(2))
    for group in ("C2xC2", "S3", "D4", "Q8"):   # one group per constructor
        families.get_family(f"coset:{group}")
    for T in pbij.all_topologies(2):
        pbij.closed_set_adjunction(T, pbij.pseudogroup_of_space(T))
    # a counterexample replays
    fam = families.cex_family()
    report = checkers.run_suite("mirror", fam, budget=50)
    if report.verdict != "fail" or not checkers.replay_counterexample(fam, report):
        raise AssertionError("the cex mirror fail does not replay")


def _main() -> None:
    reached: set[tuple[str, int]] = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    with tempfile.TemporaryDirectory() as work:
        _run_roots(Path(work))
    sys.setprofile(None)
    mine = {(str(path), line) for path, line in
            ((Path(f).resolve(), line) for f, line in reached)
            if path.is_relative_to(PACKAGE)}
    print(json.dumps(sorted(mine)))


# -- the gate (run by pytest) -------------------------------------------------


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs() -> dict[str, tuple[str, int, str, str]]:
    """Every module-level function and method: "<module>.<qualname>" to
    (file, first line, module, owning class or "").  The first line is the
    first decorator's, as in the function's code object."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        for node in tree.body:
            bodies = [("", node)] if not isinstance(node, ast.ClassDef) else [
                (node.name, item) for item in node.body]
            for owner, fn in bodies:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    qual = f"{owner}.{fn.name}" if owner else fn.name
                    out[f"{module}.{qual}"] = (str(path.resolve()), first, module, owner)
    return out


def _qualified(obj) -> str:
    return f"{obj.__module__.removeprefix('invsg.')}.{obj.__qualname__}"


def _api() -> set[str]:
    """The functions and classes of ``invsg.__all__``, qualified as in
    ``_defs``."""
    import invsg

    exported = (getattr(invsg, name) for name in invsg.__all__)
    return {_qualified(obj) for obj in exported
            if inspect.isclass(obj) or inspect.isfunction(obj)}


def _exempt(name: str, module: str, owner: str, api: set[str]) -> bool:
    """Dunders, members of exception classes, and the API: ``invsg.__all__``,
    the public members of its classes, and ``README_API``."""
    member = name.rsplit(".", 1)[1]
    if member.startswith("__") and member.endswith("__") or name in api:
        return True
    if not owner:
        return False
    cls = getattr(importlib.import_module(f"invsg.{module}"), owner)
    return (issubclass(cls, BaseException)
            or f"{module}.{owner}" in api and not member.startswith("_"))


def _reached() -> set[tuple[str, int]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return {(f, line) for f, line in json.loads(done.stdout)}


def test_every_function_in_src_is_reached_or_exempt():
    reached = _reached()
    api = _api() | set(README_API)
    unreached = sorted(name for name, (path, line, module, owner) in _defs().items()
                       if (path, line) not in reached
                       and not _exempt(name, module, owner, api))
    missing = sorted(set(unreached) - set(ALLOWLIST))
    assert not missing, (
        "no root reaches these, and no rule or allowlist entry exempts them; "
        "move what only tests use under tests/:\n  " + "\n  ".join(missing))
    stale = sorted(set(ALLOWLIST) - set(unreached))
    assert not stale, f"allowlisted but reached or gone, so drop them: {stale}"


def test_each_readme_api_name_is_in_src_and_in_the_readme():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name in README_API:
        module, _, qual = name.rpartition(".")
        assert hasattr(importlib.import_module(f"invsg.{module}"), qual), name
        assert qual in readme, name


if __name__ == "__main__":
    _main()
