"""Pinned suite and classify outputs, budgets left out.

``golden_reports.jsonl`` holds one compact JSON line per subject, keys
sorted: the verdict, counterexample and notes of every suite under
``run_suites(..., budget=400)`` for each carrier of the acceptance corpus and
each registry family, and for the families also the value, evidence and
witness of every ``classify(..., budget=400)`` flag.  A refactor must leave
the file byte-identical.  Re-record it, when a verdict is meant to change,
with ``PYTHONPATH=src python tests/test_golden.py``.

The budgets, the examined counts, are pinned apart: ``EXAMINED`` holds every
suite's and every classify flag's count on the registry families at the
default budget and seed 3, so a draw sequence that drifts while the verdicts
hold still fails.
"""

import json
from pathlib import Path

import pytest

from invsg.checkers import classify, run_suites
from invsg.families import FAMILY_BUILDERS

GOLDEN = Path(__file__).with_name("golden_reports.jsonl")
BUDGET = 400

# name: (the budget of each suite in registry order, of each classify flag in
# Classification.flags() order)
EXAMINED = {
    "bicyclic-nat": ((10000, 20000, 1012, 338, 912, 3732, 4496, 14368, 9448, 4107, 4138,
                      4540, 3732),
                     (2004, 3732, 292, 48, 2040)),
    "bicyclic-dyadic": ((10000, 20000, 1198, 4707, 954, 6774, 17436, 24796, 19982, 12496,
                         7317, 18306, 6774),
                        (2066, 6774, 5720, 1, 2084)),
    "rotation": ((10000, 20000, 1198, 3717, 954, 6386, 17246, 24606, 19727, 11213, 6788,
                  17477, 6386),
                 (2066, 6386, 5081, 1, 2050)),
    "cex": ((10000, 20000, 1067, 1358, 936, 71, 0, 0, 0, 0, 72, 0, 0),
            (19, 71, 3539, 3, 2057)),
}


def _reports(subject, sid) -> list:
    out = []
    for r in run_suites(subject, sid, budget=BUDGET):
        rec = r.to_json()
        del rec["budget"]
        out.append(rec)
    return out


def golden_lines(corpus) -> list[str]:
    records = [{"subject": sid, "reports": _reports(S, sid)} for sid, S in corpus]
    for name, build in FAMILY_BUILDERS.items():
        fam = build()
        flags = classify(fam, budget=BUDGET).to_json()
        for key in ("subject", "depth", "seed"):
            del flags[key]
        for flag in flags.values():
            del flag["budget"]
        records.append({"subject": f"family:{name}", "reports": _reports(fam, name),
                        "classify": flags})
    return [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]


def test_reports_match_the_golden_file(finite_corpus):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines(finite_corpus)
    assert [json.loads(x)["subject"] for x in got] == \
        [json.loads(x)["subject"] for x in expected]
    for g, e in zip(got, expected):
        assert g == e


@pytest.mark.parametrize("name", sorted(EXAMINED))
def test_family_examined_counts_at_seed_3(name):
    fam = FAMILY_BUILDERS[name]()
    suites, flags = EXAMINED[name]
    assert tuple(r.budget for r in run_suites(fam, name, seed=3)) == suites
    assert tuple(f.budget for f in classify(fam, seed=3).flags().values()) == flags


if __name__ == "__main__":
    from conftest import acceptance_corpus

    GOLDEN.write_text("\n".join(golden_lines(acceptance_corpus())) + "\n",
                      encoding="utf-8")
