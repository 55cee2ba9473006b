import dataclasses
import functools
import json

import pytest

from invsg import checkers
from invsg.core import FiniteInvSemigroup
from invsg.checkers import (SUITES, CheckReport, classify, replay_counterexample,
                            run_suite, run_suites)
from invsg.families import (bicyclic_dyadic, bicyclic_nat, cex_family, cex_truncation,
                            coset_monoid, group_by_name, rotation_family)
from invsg.families.base import ChainWitness
from invsg.pbij import symmetric_inverse_monoid


def test_classify_keeps_a_family_subject_id():
    fam = rotation_family()
    assert classify(fam, "family:rotation", depth=4, budget=50).subject == "family:rotation"
    assert classify(fam, depth=4, budget=50).subject == "rotation"


def test_suite_registry_is_stable():
    assert list(SUITES) == [
        "basic_rules", "order_characterizations", "sigma_sup",
        "conditional_distributivity", "greatest_of_translate", "mirror",
        "meet_continuity_mirror", "wb_characterization",
        "multiplicativity_mirror", "mirror_theorem", "separation_criterion",
        "continuity_implies_ssc", "conditional_dcpo_mirror",
    ]
    with pytest.raises(KeyError):
        run_suite("nonsense", cex_truncation(2))


def test_all_suites_pass_on_i2_subsemigroups(i2_subsemigroups):
    # a carrier passes every suite by lemma, examining nothing
    for S in i2_subsemigroups:
        for r in run_suites(S, f"I2-sub(n={S.n})"):
            assert r.verdict == "pass" and r.budget == 0, (r.suite, r.counterexample)


def test_all_suites_pass_on_i3(I3):
    for r in run_suites(I3.carrier, "I_3"):
        assert r.verdict == "pass", (r.suite, r.counterexample)


def test_all_suites_pass_on_every_coset_monoid():
    from reference import groups_of_order_at_most
    for name, G in sorted(groups_of_order_at_most(8).items()):
        M = coset_monoid(G)
        for r in run_suites(M, f"coset:{name}"):
            assert r.verdict == "pass", (name, r.suite, r.counterexample)


@pytest.mark.parametrize("sid, build, n", [
    ("coset:S4", lambda: coset_monoid(group_by_name("S4")), 234),
    ("I_4", lambda: symmetric_inverse_monoid(4).carrier, 209),
])
def test_all_suites_pass_on_the_largest_carriers(sid, build, n):
    S = build()
    assert S.n == n
    for r in run_suites(S, sid):
        assert r.verdict == "pass", (sid, r.suite, r.counterexample)


def test_all_suites_pass_on_every_small_pseudogroup():
    from invsg.pbij import all_topologies, pseudogroup_of_space
    subjects = []
    for n in (1, 2, 3):
        subjects.extend(pseudogroup_of_space(T) for T in all_topologies(n))
    assert len(subjects) == 34
    for i, P in enumerate(subjects):
        for r in run_suites(P.carrier, f"pseudogroup-{i}"):
            assert r.verdict == "pass", (i, r.suite, r.counterexample)


def test_family_corpus_has_exactly_one_failure():
    # across the whole family corpus only cex fails, and only at mirror;
    # its separation-criterion side records the matching failed criterion
    from invsg.families import FAMILY_BUILDERS, character_family
    subjects = [(name, mk()) for name, mk in FAMILY_BUILDERS.items()]
    subjects.append(("characters:sl2",
                     character_family(FiniteInvSemigroup([[0, 1], [1, 1]]))))
    failures = []
    for name, fam in subjects:
        for r in run_suites(fam, name, budget=600):
            if r.verdict == "fail":
                failures.append((name, r.suite))
    assert failures == [("cex", "mirror")]
    sep = run_suite("separation_criterion", cex_family(), "family:cex")
    assert "criterion=False, mirror=False" in sep.notes


def test_mirror_fails_on_cex_with_the_canonical_witness():
    fam = cex_family()
    r = checkers.check_mirror(fam, "family:cex")
    assert r.verdict == "fail"
    ce = r.counterexample
    assert ce["chain"] == "unit-interval-chain"
    assert ce["sup_in_sigma"] == "1"
    assert set(ce["upper_bounds"]) == {"1", "omega"}
    assert ce["incomparable_with_sup"] is True
    assert replay_counterexample(fam, r)


@pytest.mark.parametrize("depth", [16, 64, 256])
def test_the_mirror_gate_counts_only_the_chain_members_it_verifies(depth):
    # every chain of bicyclic-nat is finite, so no depth verifies more members,
    # and the count is of the instances tested on them: pairs, members,
    # claimed sups and listed bounds
    assert checkers.check_mirror(bicyclic_nat(), depth=depth, seed=3).budget == 2904


def test_classify_witness_is_the_check_counterexample():
    # a flag's witness shows each value as the suite report does: a list as a
    # list and a flag as a bool, not as their Python reprs
    witness = classify(cex_family()).mirror.to_json()["witness"]
    assert witness == checkers.check_mirror(cex_family()).to_json()["counterexample"]
    assert witness["upper_bounds"] == ["1", "omega"]
    assert witness["incomparable_with_sup"] is True


def test_na_verdicts_on_cex():
    fam = cex_family()
    for name in ("meet_continuity_mirror", "wb_characterization",
                 "multiplicativity_mirror", "mirror_theorem",
                 "continuity_implies_ssc", "conditional_dcpo_mirror"):
        r = run_suite(name, fam, "family:cex")
        assert r.verdict == "not-applicable", (name, r.verdict)
        assert r.notes


def test_separation_biconditional_on_cex_and_rotation():
    r = checkers.check_separation_criterion(cex_family(), "family:cex")
    assert r.verdict == "pass" and "criterion=False, mirror=False" in r.notes
    r2 = checkers.check_separation_criterion(rotation_family(), "family:rotation")
    assert r2.verdict == "pass" and "criterion=True, mirror=True" in r2.notes


def test_failure_reports_are_replayable_and_serializable():
    # break a carrier after validation to force a mirror counterexample:
    # no mutation is possible, so instead replay the family failure and
    # check the JSON shape of a passing and a failing report
    fam = cex_family()
    r = checkers.check_mirror(fam, "family:cex")
    blob = json.dumps(r.to_json())
    parsed = json.loads(blob)
    assert parsed["verdict"] == "fail" and "_raw" not in parsed["counterexample"]
    T = cex_truncation(2)
    ok = checkers.check_mirror(T, "cex-truncation")
    assert ok.verdict == "pass"
    assert json.loads(json.dumps(ok.to_json()))["counterexample"] is None


def test_reports_are_deterministic_across_runs():
    fam = rotation_family()
    a = [r.to_json() for r in run_suites(fam, "family:rotation", budget=400)]
    b = [r.to_json() for r in run_suites(rotation_family(), "family:rotation",
                                         budget=400)]
    assert a == b


def test_budget_sets_the_sampled_pairs():
    fam = rotation_family()
    assert checkers.check_basic_rules(fam, "family:rotation", budget=123).budget == 123
    assert checkers.check_basic_rules(fam, "family:rotation").budget == 10000


@pytest.mark.parametrize("budget", [1, 3, 4])
def test_multiplicativity_tests_a_tuple_at_every_budget(budget):
    # a copy whose way-below in S needs y = (c, d) with c + d odd: the product
    # of two such y has c + d even, so every tested S-side 4-tuple fails
    honest = bicyclic_nat()
    lying = dataclasses.replace(
        honest, wb_s=lambda x, y: honest.nat_le(x, y) and sum(y) % 2 == 1)
    r = run_suite("multiplicativity_mirror", lying, "lying", budget=budget)
    assert r.verdict == "fail" and r.counterexample["kind"] == "mult-biconditional"
    assert r.counterexample["mult_S"] is False and r.counterexample["mult_Sigma"] is True
    assert replay_counterexample(lying, r)


@pytest.mark.parametrize("build", [bicyclic_dyadic, rotation_family])
def test_a_side_that_is_not_continuous_fails_the_mirror_theorem(build):
    # a copy whose way-below in S holds nowhere: no chain approximates any
    # element of S, while Sigma stays continuous, and the order, hence
    # mirror, is untouched
    honest = build()
    lying = dataclasses.replace(honest, wb_s=lambda s, t: False)
    r = run_suite("mirror_theorem", lying, "lying", seed=0)
    assert r.verdict == "fail" and r.counterexample["kind"] == "mirror-theorem"
    assert r.counterexample["cont_S"] is False and r.counterexample["cont_Sigma"] is True
    assert replay_counterexample(lying, r)
    assert not replay_counterexample(honest, r)
    # the witness is the S side's own counterexample, and replays as one
    witness = r.counterexample["_raw"]["_witness"]
    assert witness["kind"] == "not-approximated"
    assert replay_counterexample(lying, CheckReport("mirror_theorem", "lying", "fail", witness))
    r = run_suite("continuity_implies_ssc", lying, "lying", seed=0)
    assert (r.verdict, r.notes) == ("not-applicable", "subject is not continuous")
    assert run_suite("mirror", lying, "lying", seed=0).verdict == "pass"


@pytest.mark.parametrize("bad", [{"budget": 0}, {"budget": -5}, {"depth": 0}, {"depth": -3}],
                         ids=["budget=0", "budget=-5", "depth=0", "depth=-3"])
@pytest.mark.parametrize("subject", [rotation_family, lambda: cex_truncation(2)],
                         ids=["rotation", "carrier"])
def test_non_positive_budgets_and_depths_are_refused(subject, bad):
    subject = subject()
    for name in SUITES:
        with pytest.raises(ValueError, match="must be a positive integer"):
            run_suite(name, subject, **bad)
    with pytest.raises(ValueError, match="must be a positive integer"):
        classify(subject, **bad)
    for levels in (0, -1):
        with pytest.raises(ValueError, match="levels must be a positive integer"):
            cex_truncation(levels)


def test_wb_characterization_counts_enough_pairs():
    fam = rotation_family()
    r = checkers.check_wb_characterization(fam, "family:rotation", budget=500)
    assert r.verdict == "pass"
    assert r.budget >= 500


def test_check_report_dataclass_shape():
    r = CheckReport("mirror", "x", "pass", None, 3, "note")
    assert r.to_json() == {"suite": "mirror", "subject": "x", "verdict": "pass",
                           "counterexample": None, "budget": 3, "notes": "note"}


_honest = functools.cache(lambda build: build())


def _refuting(fam, in_sigma, bad=None):
    """The replaced ``chains_to`` of a copy whose refuting chain to y on one
    side is ``bad(y, in_sigma)``, or none when ``bad`` is None; the other side
    keeps an honest one.  Sigma reads the first chain in Sigma, so the honest
    first chain comes first, taken out of Sigma.  S reads the first chain,
    so the lie is told at the y that Sigma never reads: the non-idempotents."""
    honest = fam.chains_to

    def chains_to(y):
        lie = () if bad is None else (bad(y, in_sigma),)
        if in_sigma:
            return (dataclasses.replace(honest(y)[0], in_sigma=False),) + lie
        return honest(y) if fam.is_idempotent(y) else lie
    return {"chains_to": chains_to}


# deliberately incomplete chains, so their claims are spelled out
def _without_sup(y, in_sigma):
    return ChainWitness("no-sup", lambda k: y, in_sigma, length=1)


def _at(y, in_sigma):
    # a chain whose sup is y itself, with no bound listed: it kills nothing
    # that lies below y
    return ChainWitness("at-y", lambda k: y, in_sigma, sup_in_sigma=y, sup_in_s=y,
                        length=1)


@pytest.mark.parametrize("build, lie, kind", [
    (rotation_family, lambda f: _refuting(f, False), "missing-refuter"),
    (rotation_family, lambda f: _refuting(f, True), "missing-sigma-refuter"),
    (rotation_family, lambda f: {"wb_s": f.nat_le, "wb_sigma": f.nat_le},
     "wb-sigma-claim-refuted"),
    (bicyclic_dyadic, lambda f: {"wb_s": f.nat_le, "wb_sigma": f.nat_le},
     "wb-claim-refuted"),
    (rotation_family, lambda f: _refuting(f, False, _without_sup), "refuter-sup-too-small"),
    (rotation_family, lambda f: _refuting(f, True, _without_sup),
     "sigma-refuter-sup-too-small"),
    (rotation_family, lambda f: _refuting(f, False, _at), "refuter-does-not-kill"),
    (rotation_family, lambda f: _refuting(f, True, _at), "sigma-refuter-does-not-kill"),
])
def test_way_below_refutation_kinds_fail_and_replay(build, lie, kind):
    honest = _honest(build)  # shared, so its memoized hypotheses are computed once
    lying = dataclasses.replace(honest, **lie(honest))
    r = run_suite("wb_characterization", lying, "lying", budget=300)
    assert r.verdict == "fail" and r.counterexample["kind"] == kind
    assert replay_counterexample(lying, r)
    assert not replay_counterexample(honest, r)
    assert run_suite("wb_characterization", honest, "honest", budget=300).verdict == "pass"
