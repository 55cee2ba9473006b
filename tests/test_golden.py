"""Pinned suite and classify outputs, budgets left out.

``golden_reports.jsonl`` holds one compact JSON line per subject, keys
sorted: the verdict, counterexample and notes of every suite under
``run_suites(..., budget=400)`` for each carrier of the acceptance corpus and
each registry family and one ``characters:`` subject, and for those families
also the value, evidence and witness of every ``classify(..., budget=400)``
flag.  A refactor must leave the file byte-identical.  Re-record it, when a
verdict is meant to change, with ``PYTHONPATH=src python tests/test_golden.py``.

The budgets, the examined counts, are pinned apart: ``EXAMINED`` holds every
suite's and every classify flag's count on the same families at the
default budget and seed 3, so a draw sequence that drifts while the verdicts
hold still fails.  When a count is meant to change, print the literal as the
code computes it with ``PYTHONPATH=src python tests/test_golden.py --examined``.
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

from invsg.checkers import classify, run_suites
from invsg.core import FiniteInvSemigroup
from invsg.families import FAMILY_BUILDERS, character_family

GOLDEN = Path(__file__).with_name("golden_reports.jsonl")
BUDGET = 400


def _semilattice_characters():
    """The character monoid of the 2-element semilattice: the one family
    beside rotation whose product is ``rotation_op``."""
    return character_family(FiniteInvSemigroup([[0, 0], [0, 1]]))


# the registry families and one characters: subject, by family name
FAMILIES = {**FAMILY_BUILDERS, "characters:2": _semilattice_characters}

# name: (the budget of each suite in registry order, of each classify flag in
# Classification.flags() order)
EXAMINED = {
    "bicyclic-nat": ((10000, 20000, 4012, 686, 960, 2904, 4268, 14140, 9220, 3060, 3310, 4183,
                      2907),
                     (2004, 2904, 73, 48, 2583)),
    "bicyclic-dyadic": ((10000, 20000, 4198, 5013, 1824, 11130, 22392, 29752, 24889, 11220, 11673,
                         19806, 11136),
                        (2066, 11130, 88, 1, 2628)),
    "rotation": ((10000, 20000, 4198, 4023, 1824, 9706, 21166, 28526, 23644, 9797, 10108, 18581,
                  9712),
                 (2066, 9706, 89, 1, 2613)),
    "cex": ((10000, 20000, 4067, 1702, 1518, 339, 0, 0, 0, 0, 340, 0, 0),
            (13, 339, 73, 2, 2596)),
    "characters:2": ((10000, 20000, 4131, 2339, 1514, 9726, 16521, 0, 0, 0, 0, 0, 9729),
                     (2000, 9726, 0, 0, 0)),
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
    for name, build in FAMILIES.items():
        fam = build()
        flags = classify(fam, budget=BUDGET).to_json()
        for key in ("subject", "depth", "seed"):
            del flags[key]
        for flag in flags.values():
            del flag["budget"]
        subject = name if name.startswith("characters:") else f"family:{name}"
        records.append({"subject": subject, "reports": _reports(fam, name),
                        "classify": flags})
    return [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]


def test_reports_match_the_golden_file(finite_corpus):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines(finite_corpus)
    assert [json.loads(x)["subject"] for x in got] == \
        [json.loads(x)["subject"] for x in expected]
    for g, e in zip(got, expected):
        assert g == e


def examined(name) -> tuple:
    """A family's entry of ``EXAMINED`` as the code computes it."""
    fam = FAMILIES[name]()
    return (tuple(r.budget for r in run_suites(fam, name, seed=3)),
            tuple(f.budget for f in classify(fam, seed=3).flags().values()))


@pytest.mark.parametrize("name", sorted(EXAMINED))
def test_family_examined_counts_at_seed_3(name):
    assert examined(name) == EXAMINED[name]


def examined_literal() -> str:
    """The source of ``EXAMINED``, wrapped as in this file."""
    lines = ["EXAMINED = {"]
    for name in FAMILIES:
        suites, flags = examined(name)
        head = f'    "{name}": (('
        lines += textwrap.wrap(", ".join(map(str, suites)) + "),", 99, initial_indent=head,
                               subsequent_indent=" " * len(head))
        lines.append(" " * (len(head) - 1) + f"({', '.join(map(str, flags))})),")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    if sys.argv[1:] == ["--examined"]:
        print(examined_literal())
    else:
        from conftest import acceptance_corpus

        GOLDEN.write_text("\n".join(golden_lines(acceptance_corpus())) + "\n",
                          encoding="utf-8")
