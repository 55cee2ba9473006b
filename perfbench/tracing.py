"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each invsg layer from the outside,
by replacing module attributes, class attributes and dict values, and puts
every original back in ``remove``.  Nothing in ``src/invsg`` changes.

Each wrapped call is a span: name, start, end, parent span and invocation.
A layer's ``s`` is the total time of its spans and ``self_s`` that time less
the time of the spans it caused.  When a layer re-enters itself (for example
``cli.resolve_subject`` calling ``families.get_family``), only the outer call
is counted.

Leaf layers are called up to millions of times per pass (``poset.sup``,
``PartialBijection.__init__``, the family oracles, ``up_masks``).  They are
counted and timed, and their time is charged to the enclosing span, but no
span record is kept for each call, so a traced run's memory stays bounded.
``poset.directed_subsets`` is a generator; it is counted, not timed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from time import perf_counter

# Which stat of a layer a metric name ends with; the rest is the layer name.
_STATS = {"calls": 0, "s": 1, "self_s": 2}


class Tracer:
    def __init__(self, inv):
        self.inv = inv
        self.stats: dict[str, list] = {}    # layer -> [calls, s, self_s]
        self.counts: dict[str, int] = {}    # metric name -> count
        self.spans: list[tuple] = []        # (id, name, start, end, parent, invocation)
        self.invocation = -1
        self._stack: list[list] = []        # open spans: [id, child seconds, start]
        self._open: set[str] = set()
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, calls: int) -> None:
        end = perf_counter()
        self._stack.pop()
        elapsed = end - frame[2]
        st = self.stats[name]
        st[0] += calls
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        self.spans.append((frame[0], name, frame[2], end,
                           parent[0] if parent is not None else None, self.invocation))

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each outermost call is one span of ``name``."""
        self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            self._open.add(name)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, 1)
                self._open.discard(name)
            if after is not None:
                after(result)
            return result
        return wrapper

    def span_generator(self, name: str, fn):
        """Like ``span`` for a generator function: each resume is one span."""
        self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame, calls)
                    calls = 0
                yield item
        return wrapper

    def leaf(self, name: str, fn):
        """Count and time ``fn`` without keeping a span per call."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def counted_generator(self, prefix: str, fn, too_large):
        """Count calls, items yielded and ``too_large`` refusals of a generator."""
        counts = self.counts
        for stat in ("calls", "yielded", "too_large"):
            counts.setdefault(f"{prefix}.{stat}", 0)

        def wrapper(*args, **kwargs):
            counts[f"{prefix}.calls"] += 1
            try:
                for item in fn(*args, **kwargs):
                    counts[f"{prefix}.yielded"] += 1
                    yield item
            except too_large:
                counts[f"{prefix}.too_large"] += 1
                raise
        return wrapper

    def invoke(self, index: int, call):
        """Run one benchmark invocation as the root span of its spans."""
        self.invocation = index
        return self.span("invocation", call)()

    # -- installing the wrappers -------------------------------------------

    def _patch(self, owner, key: str, wrap) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = wrap(original)
        else:
            original = getattr(owner, key)
            setattr(owner, key, wrap(original))
        self._patches.append((owner, key, original))

    def _family_builder(self, build):
        def builder(*args, **kwargs):
            fam = build(*args, **kwargs)
            changes = {"op": self.leaf("families.op", fam.op),
                       "nat_le": self.leaf("families.nat_le", fam.nat_le)}
            for field in ("wb_s", "wb_sigma"):
                oracle = getattr(fam, field)
                if oracle is not None:
                    changes[field] = self.leaf("families.wb", oracle)
            return dataclasses.replace(fam, **changes)
        return builder

    def install(self) -> None:
        inv = self.inv
        cli, core, pbij, poset = inv.cli, inv.core, inv.pbij, inv.poset
        families, checkers = inv.families, inv.checkers
        span = self.span
        self._patch(cli, "main", lambda f: span("cli.main", f))
        self._patch(cli, "classify", lambda f: span("families.classify", f))
        for owner, key in ((cli, "get_family"), (cli, "resolve_subject"),
                           (families, "get_family")):
            self._patch(owner, key, lambda f: span("families.resolve", f))
        for name in list(families.FAMILY_BUILDERS):
            self._patch(families.FAMILY_BUILDERS, name, self._family_builder)
        for owner in (core, families):
            self._patch(owner, "load_carrier", lambda f: span("core.load_carrier", f))
        FIS = core.FiniteInvSemigroup
        self._patch(FIS, "__init__", lambda f: span("core.validate", f))
        self._patch(FIS, "up_masks", lambda f: self.leaf("core.up_masks", f))
        self._patch(pbij.PartialBijection, "__init__",
                    lambda f: self.leaf("pbij.PartialBijection", f))
        for key, name in (("symmetric_inverse_monoid", "pbij.symmetric_inverse_monoid"),
                          ("canonical_table", "pbij.canonical_table"),
                          ("pseudogroup_of_space", "pbij.pseudogroup")):
            self._patch(pbij, key, lambda f, name=name: span(name, f))
        self._patch(pbij, "enumerate_inverse_subsemigroups",
                    lambda f: self.span_generator("pbij.enumerate", f))
        for key in ("order_poset", "sigma_poset", "way_below_matrix"):
            self._patch(poset, key, lambda f, key=key: span(f"poset.{key}", f))
        self._patch(poset, "sup", lambda f: self.leaf("poset.sup", f))
        self._patch(poset, "directed_subsets",
                    lambda f: self.counted_generator(
                        "poset.directed_subsets", f, poset.TooLargeForDefinitionalCheck))
        for suite in list(checkers.SUITES):
            examined = f"checkers.{suite}.examined"
            self.counts.setdefault(examined, 0)
            self._patch(checkers.SUITES, suite, lambda f, suite=suite, examined=examined:
                        span(f"checkers.{suite}", f,
                             after=lambda report: self._add(examined, report.budget)))

    def _add(self, name: str, k: int) -> None:
        self.counts[name] += k

    def remove(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def value(self, metric: str):
        """A per-layer metric by name: a count, or a layer's calls, s or self_s."""
        if metric in self.counts:
            return self.counts[metric]
        layer, stat = metric.rsplit(".", 1)
        return self.stats.get(layer, [0, 0.0, 0.0])[_STATS[stat]]

    def write(self, path: Path, header: dict) -> None:
        """Write the spans and per-layer totals, once, when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, stats=self.stats, counts=self.counts,
                   span_fields=["id", "name", "start", "end", "parent", "invocation"],
                   spans=self.spans)
        path.write_text(json.dumps(doc), encoding="utf-8")
