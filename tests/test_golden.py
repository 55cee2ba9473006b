"""Pinned suite and classify outputs, budgets left out.

``golden_reports.jsonl`` holds one compact JSON line per subject, keys
sorted: the verdict, counterexample and notes of every suite under
``run_suites(..., budget=400)`` for each carrier of the acceptance corpus and
each registry family, and for the families also the value, evidence and
witness of every ``classify(..., budget=400)`` flag.  A refactor must leave
the file byte-identical.  Re-record it, when a verdict is meant to change,
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

from invsg.checkers import run_suites
from invsg.families import FAMILY_BUILDERS, classify

GOLDEN = Path(__file__).with_name("golden_reports.jsonl")
BUDGET = 400


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


if __name__ == "__main__":
    from conftest import acceptance_corpus

    GOLDEN.write_text("\n".join(golden_lines(acceptance_corpus())) + "\n",
                      encoding="utf-8")
