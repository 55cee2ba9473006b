"""The benchmark's workloads: their inputs, invocations and output digests.

An invocation is one call into invsg's public surface: ``invsg.cli.main(argv)``
with stdout and stderr captured, or one of the ``pbij``/``families`` builders.
Its digest keeps what a correct program must reproduce at every seed: exit
codes, verdicts, counterexample fields, flag values, carrier sizes and
counts.  Budgets, notes and timings are left out on purpose, because planned
work on coverage and reporting changes them without changing any verdict.

Digests read the returned data directly (tables, mappings, JSON text) and
call no invsg function, so checking an output adds nothing to a trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("finite-corpus", "family-corpus", "carrier-build")

# Groups of order <= 8 with a coset monoid, as the CLI names them.
COSET_GROUPS = ("C1", "C2", "C2xC2", "C2xC2xC2", "C3", "C4", "C4xC2", "C5",
                "C6", "C7", "C8", "D4", "Q8", "S3")
REGISTRY_FAMILIES = ("bicyclic-nat", "bicyclic-dyadic", "rotation", "cex")
FLAGS = ("reduced", "mirror", "continuous", "algebraic", "stably_continuous")


@dataclass(frozen=True)
class Invocation:
    label: str                     # key into the expected record
    call: Callable[[], Any]        # the timed call
    digest: Callable[[Any], Any]   # untimed: output -> comparable record


# -- calls -------------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv with SystemExit
            code = exc.code
    return code, out.getvalue()


def _cli_call(inv, argv: list[str]) -> Callable[[], tuple[int, str]]:
    # inv.cli.main is looked up at call time, so a traced run sees its wrapper.
    return lambda: run_cli(inv.cli, argv)


def topology_adjunctions(pbij, points: int) -> list:
    """The pseudogroup and closed-set adjunction of every topology."""
    out = []
    for T in pbij.all_topologies(points):
        P = pbij.pseudogroup_of_space(T)
        out.append((T, P, pbij.closed_set_adjunction(T, P)))
    return out


# -- digests -----------------------------------------------------------------


def check_digest(result) -> dict:
    code, text = result
    reports = {}
    for r in json.loads(text):
        entry = {"verdict": r["verdict"]}
        if r["counterexample"] is not None:
            entry["counterexample"] = r["counterexample"]
        reports[r["suite"]] = entry
    return {"exit": code, "reports": reports}


def classify_digest(result) -> dict:
    code, text = result
    record = json.loads(text)
    flags = {}
    for name in FLAGS:
        flag = record[name]
        entry = {"value": flag["value"]}
        kind = (flag.get("witness") or {}).get("kind")
        if kind is not None:
            entry["kind"] = kind
        flags[name] = entry
    return {"exit": code, "flags": flags}


def _idempotent_count(table) -> int:
    return sum(1 for s in range(len(table)) if table[s][s] == s)


def symmetric_inverse_monoid_size(n: int) -> int:
    """|I_n| = sum over k of C(n,k)^2 * k!, counted independently of pbij."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def _product(f, g):
    """Mapping of f*g (g applied first) for mappings with -1 as undefined."""
    return tuple(-1 if v == -1 else f[v] for v in g)


def generated_digest(gs, ground: int, samples: int = 2000) -> dict:
    C = gs.carrier
    maps = [f.mapping for f in gs.rep]
    rng = random.Random(ground)
    pairs = [(rng.randrange(C.n), rng.randrange(C.n)) for _ in range(samples)]
    return {
        "n": C.n,
        "n_is_formula": C.n == symmetric_inverse_monoid_size(ground),
        "rep": len(maps),
        "idempotents": _idempotent_count(C.table),
        "products_compose": all(_product(maps[s], maps[t]) == maps[C.table[s][t]]
                                for s, t in pairs),
    }


def validate_digest(result, table) -> dict:
    code, text = result
    obj = json.loads(text)
    n = len(table)
    inv, e = obj["inv"], obj["identity"]
    return {
        "exit": code,
        "n": obj["n"],
        "table_is_input": obj["table"] == table,
        "idempotents": obj["idempotents"] == [s for s in range(n) if table[s][s] == s],
        "inverses": all(table[table[s][inv[s]]][s] == s for s in range(n)),
        "identity": e is not None and all(table[e][x] == x == table[x][e]
                                          for x in range(n)),
    }


def enumerate_digest(result) -> dict:
    code, text = result
    orders: dict[str, int] = {}
    lines = text.splitlines()
    for line in lines:
        k = str(json.loads(line)["n"])
        orders[k] = orders.get(k, 0) + 1
    return {"exit": code, "count": len(lines),
            "orders": dict(sorted(orders.items(), key=lambda kv: int(kv[0])))}


def carrier_digest(S) -> dict:
    return {"n": S.n, "idempotents": _idempotent_count(S.table)}


def adjunction_digest(result) -> dict:
    rows = []
    for _T, P, (i_map, j_map) in result:
        rows.append({
            "order": P.carrier.n,
            "closed_sets": len(i_map),
            "idempotents": len(j_map),
            "j_after_i": all(j_map.get(e) == F for F, e in i_map.items()),
            "i_after_j": all(i_map.get(F) == e for e, F in j_map.items()),
        })
    return {"topologies": len(result), "rows": rows}


# -- workloads -----------------------------------------------------------------


def _write_carrier(core, path: Path, S) -> None:
    path.write_text(json.dumps(core.to_json(S)), encoding="utf-8")


def _finite_corpus(inv, seed: int, work: Path) -> list[Invocation]:
    pbij, core, families = inv.pbij, inv.core, inv.families
    carriers = [(f"I2-sub-{i}", S)
                for i, S in enumerate(pbij.enumerate_inverse_subsemigroups(2, 7))]
    carriers.append(("I_3", pbij.symmetric_inverse_monoid(3).carrier))
    carriers.append(("cex-truncation-2", families.cex_truncation(2)))
    carriers.append(("cex-truncation-4", families.cex_truncation(4)))
    subjects = []
    for label, S in carriers:
        path = work / f"{label}.json"
        _write_carrier(core, path, S)
        subjects.append((label, str(path)))
    subjects += [(f"coset:{g}", f"coset:{g}") for g in COSET_GROUPS]
    return [Invocation(label, _cli_call(inv, ["check", "--suite", "all", "--json",
                                              "--seed", str(seed), "--subject", subj]),
                       check_digest)
            for label, subj in subjects]


def _family_corpus(inv, seed: int, work: Path) -> list[Invocation]:
    out = []
    for f in REGISTRY_FAMILIES:
        out.append(Invocation(
            f"check:{f}",
            _cli_call(inv, ["check", "--suite", "all", "--subject", f"family:{f}",
                            "--json", "--seed", str(seed)]),
            check_digest))
        out.append(Invocation(
            f"classify:{f}",
            _cli_call(inv, ["classify", "--family", f, "--json", "--seed", str(seed)]),
            classify_digest))
    return out


def _carrier_build(inv, seed: int, work: Path) -> list[Invocation]:
    # The seed does not enter: every input here is fixed.
    pbij, core, families = inv.pbij, inv.core, inv.families
    I4 = pbij.symmetric_inverse_monoid(4).carrier
    path = work / "I_4.json"
    _write_carrier(core, path, I4)
    table = [list(row) for row in I4.table]
    return [
        Invocation("I_5", lambda: pbij.symmetric_inverse_monoid(5),
                   lambda gs: generated_digest(gs, 5)),
        Invocation("I_4", lambda: pbij.symmetric_inverse_monoid(4),
                   lambda gs: generated_digest(gs, 4)),
        Invocation("validate:I_4", _cli_call(inv, ["validate", "--json", str(path)]),
                   lambda r: validate_digest(r, table)),
        Invocation("enumerate:3:10",
                   _cli_call(inv, ["enumerate", "--ground", "3", "--max-order", "10"]),
                   enumerate_digest),
        Invocation("coset:S4", lambda: families.get_family("coset:S4"), carrier_digest),
        Invocation("topologies:3", lambda: topology_adjunctions(pbij, 3),
                   adjunction_digest),
    ]


BUILDERS = {
    "finite-corpus": _finite_corpus,
    "family-corpus": _family_corpus,
    "carrier-build": _carrier_build,
}


def build(inv, workload: str, seed: int, work: Path) -> list[Invocation]:
    """Generate the workload's inputs under ``work`` and return its invocations."""
    return BUILDERS[workload](inv, seed, work)
