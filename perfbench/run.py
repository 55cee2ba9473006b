"""invsg benchmark: one workload, from a seed, in one process and one thread.

    python3 perfbench/run.py --workload finite-corpus --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; invsg is imported from its ``src``.  The
workload's invocations run in passes for up to ``--seconds`` (at least one
pass), and every output is compared with ``expected.json``.  Times are read
from the reference clock of ``refclock.py``, which corrects for the host's
changes of speed; the wall seconds are printed beside them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` list of ``BENCHMARK.json``.  With ``--trace 1`` the
untraced passes are followed by one traced pass, and the metrics are the
``per_layer`` list; the spans go to ``perfbench/out/``.  The lines before
it give each metric with its unit, ``failed_ratio`` with its counts, and the
run's context (commit, Python, CPUs, seed, a reference loop's time).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
MODULES = ("cli", "core", "pbij", "poset", "families", "checkers")
# Set-up (fresh import + input generation) is timed 5 times before the passes
# and 4 times after them, so that its median spans the whole run.
SETUP_BEFORE, SETUP_AFTER = 5, 4
REFERENCE_REPEATS = 3


def load_invsg() -> types.SimpleNamespace:
    """Import invsg afresh from the checkout's ``src``; its modules by name."""
    for name in [m for m in sys.modules if m == "invsg" or m.startswith("invsg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("invsg")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"invsg was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"invsg.{m}") for m in MODULES})


@dataclass
class Pass:
    times: list = field(default_factory=list)       # reference seconds per invocation
    raw_times: list = field(default_factory=list)   # wall seconds per invocation
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def slowest(self) -> float:
        return max(self.times)


def run_pass(invocations, expected: dict, clock: RefClock, tracer=None) -> Pass:
    """Time each invocation, then check its output against the record.

    An invocation fails when it raises, or when its digest (exit code
    included) differs from the expected record.  Only the call is timed.
    """
    p = Pass()

    def timed(t0: float, r0: float) -> None:
        p.times.append(clock.now() - t0)
        p.raw_times.append(clock.raw() - r0)

    for i, inv in enumerate(invocations):
        t0, r0 = clock.now(), clock.raw()
        try:
            result = inv.call() if tracer is None else tracer.invoke(i, inv.call)
        except Exception as exc:  # a failed invocation is counted, not fatal
            timed(t0, r0)
            p.failed += 1
            p.errors.append(f"{inv.label}: raised {exc!r}")
            continue
        timed(t0, r0)
        try:
            got = inv.digest(result)
        except Exception as exc:  # output that cannot be read is wrong output
            got = f"unreadable output: {exc!r}"
        if got != expected.get(inv.label):
            p.failed += 1
            p.errors.append(f"{inv.label}: got {json.dumps(got)[:300]}")
        del result
    return p


def measure(invocations, expected: dict, seconds: float, clock: RefClock) -> list:
    """Run passes for up to ``seconds`` of wall time: always one, and another
    only while the last pass's length says that it will end in time."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(invocations, expected, clock))
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            return passes


def set_up(workload: str, seed: int, work: Path, clock: RefClock, t0: float):
    """Import invsg afresh and build the workload's inputs, timed from the
    reference time ``t0``."""
    inv = load_invsg()
    invocations = workloads.build(inv, workload, seed, work)
    return inv, invocations, clock.now() - t0


def reference_loop() -> int:
    """A fixed pure-Python loop, timed as context for the machine's speed."""
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


def context(seed: int, clock: RefClock, passes: list) -> dict:
    walls, cpus = [], []
    for _ in range(REFERENCE_REPEATS):
        w, c = time.perf_counter(), time.process_time()
        reference_loop()
        walls.append(time.perf_counter() - w)
        cpus.append(time.process_time() - c)
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "reference_loop_s": {"wall": walls, "cpu": cpus},
        # Reference seconds per wall second over the passes: the host's speed.
        "speed": sum(p.wall for p in passes) / sum(sum(p.raw_times) for p in passes),
        "clock": {"ticks": clock.ticks, "probe_s": clock.probe_s},
    }


def git_commit():
    """The checked-out commit, read from .git without running git; else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # The first set-up counts from the start of this script.
    clock = RefClock(since=START).start()
    try:
        setups = []
        t0 = 0.0
        try:
            for _ in range(SETUP_BEFORE):
                inv, invocations, dt = set_up(args.workload, args.seed, work, clock, t0)
                setups.append(dt)
                t0 = clock.now()
        except ImportError as exc:
            print(f"cannot import invsg from {SRC}: {exc}", file=sys.stderr)
            return 2
        passes = measure(invocations, expected, args.seconds, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer(inv)
            tracer.install()
            try:
                traced = run_pass(invocations, expected, clock, tracer)
            finally:
                tracer.remove()
            passes.append(traced)
        for _ in range(SETUP_AFTER):
            setups.append(set_up(args.workload, args.seed, work, clock, clock.now())[2])
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for err in p.errors:
            print(f"FAILED {err}", file=sys.stderr)
    untraced = passes[:-1] if args.trace else passes
    ctx = context(args.seed, clock, untraced)
    correct = failed == 0 and {i.label for i in invocations} == set(expected)

    if args.trace:
        untraced_wall = statistics.median(p.wall for p in untraced)
        values = {m["name"]: tracer.value(m["name"])
                  for m in spec["per_layer"] if not m["name"].startswith("trace.")}
        values["trace.wall_s"] = traced.wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_ratio"] = traced.wall / untraced_wall
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "context": ctx,
                      "invocations": [i.label for i in invocations],
                      "metrics": metrics})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall for p in passes),
            "slowest_call_s": statistics.median(p.slowest for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps({"context": ctx, "workload": args.workload,
                      "passes": len(passes)}))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    raw_wall = statistics.median(sum(p.raw_times) for p in untraced)
    raw_slowest = statistics.median(max(p.raw_times) for p in untraced)
    print(f"wall seconds, not reference seconds: pass {raw_wall:.6g} s, "
          f"slowest call {raw_slowest:.6g} s")
    print("set-ups in reference seconds: " + " ".join(f"{s:.4g}" for s in setups))
    print(f"failed_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
