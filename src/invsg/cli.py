"""Command-line surface: validate, enumerate, classify, check, hasse.

Exit codes: 0 all pass, 1 a property suite failed (counterexample printed),
2 invalid input, 3 budget/size limits exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checkers, core, pbij, poset
from .checkers import classify
from .core import FiniteInvSemigroup, NotInverseSemigroup
from .families import get_family, resolve_subject
from .families.base import DEFAULT_DEPTH, SymbolicFamily, require_positive

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_LIMIT = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invsg",
        description="Inverse semigroups, their intrinsic order, and "
                    "domain-theoretic property suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a carrier file")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")

    e = sub.add_parser("enumerate", help="stream inverse subsemigroups of I_n")
    e.add_argument("--ground", type=int, required=True)
    e.add_argument("--max-order", type=int, required=True)

    c = sub.add_parser("classify", help="classification record with evidence")
    c.add_argument("--family", required=True)
    c.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--json", action="store_true")

    k = sub.add_parser("check", help="run property suites against a subject")
    k.add_argument("--suite", default="all")
    k.add_argument("--subject", required=True)
    k.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--budget", type=int, default=None)
    k.add_argument("--json", action="store_true")

    h = sub.add_parser("hasse", help="emit the Hasse diagram as DOT")
    h.add_argument("--subject", required=True)
    h.add_argument("--out", default="-")
    h.add_argument("--window", type=int, default=40,
                   help="max elements (sampling window for families)")
    h.add_argument("--seed", type=int, default=0)
    return ap


def _invalid(exc: Exception) -> int:
    """Print an input error and return its exit code; a KeyError prints its
    message, not the repr that ``str`` gives it."""
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"invalid: {message}", file=sys.stderr)
    return EXIT_INVALID


def _cmd_validate(args) -> int:
    try:
        S = core.load_carrier(args.file)
    except (OSError, ValueError, NotInverseSemigroup) as exc:
        return _invalid(exc)
    normalized = core.to_json(S)
    normalized["inv"] = list(S.inv)
    normalized["identity"] = S.identity
    normalized["idempotents"] = list(core.idempotents(S))
    if args.json:
        print(json.dumps(normalized))
    else:
        print(f"valid inverse semigroup: n={S.n}, "
              f"identity={S.identity}, idempotents={normalized['idempotents']}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for S in pbij.enumerate_inverse_subsemigroups(args.ground, args.max_order):
        print(json.dumps(core.to_json(S)))
    return EXIT_OK


def _check_limits(args) -> None:
    """Raise ValueError for a non-positive depth, budget, window, ground or
    max order, or an unknown suite."""
    flags = ("depth", "budget", "window", "ground", "max_order")
    require_positive(**{"--" + f.replace("_", "-"): getattr(args, f, None) for f in flags})
    if args.command != "check":
        return
    if args.suite != "all" and args.suite not in checkers.SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; known: {', '.join(checkers.SUITES)}")


def _cmd_classify(args) -> int:
    try:
        subject = get_family(args.family, args.depth)
    except (KeyError, OSError, ValueError, NotInverseSemigroup) as exc:
        return _invalid(exc)
    record = classify(subject, args.family, depth=args.depth, seed=args.seed)
    if args.json:
        print(json.dumps(record.to_json()))
    else:
        print(f"subject: {record.subject}")
        for name, flag in record.flags().items():
            print(f"  {name}: {flag.value}  [{flag.evidence}; budget={flag.budget}]")
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        subject, sid = resolve_subject(args.subject, args.depth)
    except (KeyError, OSError, ValueError, NotInverseSemigroup) as exc:
        return _invalid(exc)
    reports = checkers.run_suites(subject, sid, args.suite, depth=args.depth,
                                  seed=args.seed, budget=args.budget)
    failed = False
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
        failed = any(r.verdict == "fail" for r in reports)
    else:
        for r in reports:
            line = f"{r.suite:28s} {r.verdict:>14s}  (budget={r.budget})"
            if r.notes:
                line += f"  {r.notes}"
            print(line)
            if r.verdict == "fail":
                failed = True
                ce = r.to_json()["counterexample"] or {}
                print(f"  counterexample: {json.dumps(ce, default=str)}")
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_hasse(args) -> int:
    try:
        subject, _sid = resolve_subject(args.subject)
    except (KeyError, OSError, ValueError, NotInverseSemigroup) as exc:
        return _invalid(exc)
    if isinstance(subject, FiniteInvSemigroup):
        if subject.n > args.window:
            print(f"limit: carrier has {subject.n} > {args.window} elements",
                  file=sys.stderr)
            return EXIT_LIMIT
        P = poset.order_poset(subject)
        labels = [subject.name_of(i) for i in range(subject.n)]
    else:
        fam: SymbolicFamily = subject
        rng = checkers._rng(args.seed, "hasse", fam.name)
        pool = []
        for _ in range(args.window * 4):
            x = fam.sample(rng)
            if x not in pool:
                pool.append(x)
            if len(pool) >= args.window:
                break
        P = poset.FinitePoset.from_relation(
            len(pool), lambda i, j: fam.nat_le(pool[i], pool[j]))
        labels = [fam.describe(x) for x in pool]
    dot = poset.hasse_dot(P, labels)
    if args.out == "-":
        sys.stdout.write(dot)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            return _invalid(exc)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_limits(args)
    except ValueError as exc:
        return _invalid(exc)
    handlers = {"validate": _cmd_validate, "enumerate": _cmd_enumerate,
                "classify": _cmd_classify, "check": _cmd_check,
                "hasse": _cmd_hasse}
    try:
        return handlers[args.command](args)
    except pbij.TooLarge as exc:  # a budget or size limit, from any command
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
