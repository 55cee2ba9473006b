"""Tests of the benchmark itself (not of invsg).

    python3 -m pytest perfbench -q

They run small slices of the workloads and take about 15 seconds.
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from refclock import RefClock
from tracing import Tracer

EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
# Cheap invocations that still reach poset.sup, a family oracle and pbij.
COUNT_SLICE = {"finite-corpus": ["coset:D4"],
               "family-corpus": ["classify:bicyclic-dyadic"],
               "carrier-build": ["I_4"]}


def _slice(inv, workload, labels, work, seed=0):
    return [i for i in workloads.build(inv, workload, seed, work) if i.label in labels]


@pytest.fixture()
def inv():
    return run.load_invsg()


@pytest.fixture()
def clock():
    c = RefClock().start()
    yield c
    c.stop()


def test_clock_ticks_and_puts_the_signal_handler_back():
    before = signal.getsignal(signal.SIGALRM)
    c = RefClock().start()
    try:
        t0, r0 = c.now(), c.raw()
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        ref, raw = c.now() - t0, c.raw() - r0
    finally:
        c.stop()
    assert c.ticks >= 3
    assert 0.4 < raw < 0.5 < raw + c.probe_s
    assert ref > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_expected_record_covers_every_workload():
    assert set(EXPECTED) == set(workloads.WORKLOADS)
    build = EXPECTED["carrier-build"]
    assert build["I_5"]["n"] == 1546 == workloads.symmetric_inverse_monoid_size(5)
    assert build["I_4"]["n"] == 209
    assert build["coset:S4"]["n"] == 234
    assert build["enumerate:3:10"]["count"] == 71
    assert build["topologies:3"]["topologies"] == 29
    cex = EXPECTED["family-corpus"]["check:cex"]
    assert cex["exit"] == 1
    witness = cex["reports"]["mirror"]["counterexample"]
    assert witness["sup_in_sigma"] == "1"
    assert witness["upper_bounds"] == ["1", "omega"]


def test_perturbed_record_counts_as_failure(inv, clock, tmp_path):
    labels = ["I2-sub-0", "I2-sub-1", "coset:C2"]
    invocations = _slice(inv, "finite-corpus", labels, tmp_path)
    expected = EXPECTED["finite-corpus"]
    assert run.run_pass(invocations, expected, clock).failed == 0

    perturbed = copy.deepcopy(expected)
    perturbed["I2-sub-1"]["reports"]["mirror"]["verdict"] = "fail"
    perturbed["coset:C2"]["exit"] = 1
    p = run.run_pass(invocations, perturbed, clock)
    assert p.failed == 2
    assert p.failed / len(p.times) > 0


def test_raising_invocation_counts_as_failure(clock):
    def boom():
        raise RuntimeError("boom")
    p = run.run_pass([workloads.Invocation("x", boom, lambda r: r)], {"x": None}, clock)
    assert (p.failed, len(p.times)) == (1, 1)


def _identities(inv):
    """Identities of the functions a traced run wraps, in a fixed order."""
    fns = [inv.poset.sup, inv.pbij.PartialBijection.__init__, inv.cli.main,
           inv.core.FiniteInvSemigroup.__init__]
    fns += inv.checkers.SUITES.values()
    fns += inv.families.FAMILY_BUILDERS.values()
    return [id(f) for f in fns]


def test_untraced_run_leaves_the_program_unwrapped(inv, clock, tmp_path):
    before = _identities(inv)
    invocations = _slice(inv, "family-corpus", ["classify:cex"], tmp_path)
    invocations += _slice(inv, "finite-corpus", ["I2-sub-3"], tmp_path)
    run.measure(invocations, {**EXPECTED["family-corpus"],
                              **EXPECTED["finite-corpus"]}, 0, clock)
    assert _identities(inv) == before

    tracer = Tracer(inv)
    tracer.install()
    try:
        assert _identities(inv) != before
    finally:
        tracer.remove()
    assert _identities(inv) == before


def traced_counts(seed: int, work: str) -> dict:
    """Call counts of one traced pass over COUNT_SLICE."""
    inv = run.load_invsg()
    invocations, expected = [], {}
    for workload, labels in COUNT_SLICE.items():
        invocations += _slice(inv, workload, labels, Path(work), seed)
        expected.update(EXPECTED[workload])
    tracer = Tracer(inv)
    tracer.install()
    clock = RefClock().start()
    try:
        p = run.run_pass(invocations, expected, clock, tracer)
    finally:
        clock.stop()
        tracer.remove()
    assert p.failed == 0, p.errors
    counts = {f"{layer}.calls": st[0] for layer, st in tracer.stats.items()}
    counts.update(tracer.counts)
    return counts


def test_traced_counts_repeat_across_hash_seeds(tmp_path):
    results = []
    for hash_seed in ("0", "7"):
        code = ("import json, test_perfbench as t; "
                f"print(json.dumps(t.traced_counts(3, {str(tmp_path)!r})))")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, env=env,
                              capture_output=True, text=True, timeout=170, check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert results[0] == results[1]
    counts = results[0]
    assert counts["poset.sup.calls"] > 0
    assert counts["families.op.calls"] > 0
    assert counts["pbij.PartialBijection.calls"] > 0
