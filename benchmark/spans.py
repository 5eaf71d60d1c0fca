"""Spans at setfam's module boundaries, recorded from the benchmark's side.

`Tracer.install()` replaces public functions with timing wrappers at the
place the calling module looks them up (for example
``setfam.testers.witness_check_uc``, or ``setfam.cli.ALGORITHMS``), and
`Tracer.uninstall()` puts the originals back.  Oracles are measured by
wrapping the oracle object a tester receives.  Nothing inside setfam is
edited.

Every span carries a name, start, end and the index of the span that was
open when it began.  Self time (a span's duration minus the time covered by
its child spans) is accumulated per name as spans close; the first
`keep` spans are also kept in memory and written out by `dump()`.  Leaf
spans (oracle queries, counter calls, downset enumeration steps) are the
bulk of the volume, millions per run, so they only feed the totals.

A leaf span's own cost would otherwise land in the self times: part of it
inside the span, and the rest in its parent.  `calibrate()` measures both
parts on an empty oracle wrapper, and `self_seconds()` subtracts them.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.dropped = 0
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_index, children]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.children: Counter = Counter()
        self.inner_ns = 0.0  # span cost that falls inside the span
        self.leak_ns = 0.0  # span cost that falls into the parent's self time
        self.counts: Counter = Counter()
        self.oracle_kind = "table"  # table | builtin | instance, set before each tester call
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str, record: bool = True) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        start = perf_counter_ns()
        index = -1
        if record:
            if len(self.spans) < self.keep:
                index = len(self.spans)
                self.spans.append([name, start, 0, parent])
            else:
                self.dropped += 1
        self.stack.append([name, start, 0, index, 0])

    def leave(self) -> None:
        end = perf_counter_ns()
        name, start, child, index, children = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        self.children[name] += children
        if index >= 0:
            self.spans[index][2] = end
        if self.stack:
            self.stack[-1][2] += dur
            self.stack[-1][4] += 1

    def calibrate(self, batches: int = 7, reps: int = 20_000) -> None:
        """Measure the cost of an empty leaf span (least of several batches)."""
        empty = TracedOracle(self, "empty", _Empty())
        inner, leak = [], []
        for _ in range(batches):
            self.enter("parent", record=False)
            for x in range(reps):
                empty(x)
            self.leave()
            inner.append(self.self_ns["empty"] / reps)
            leak.append(self.self_ns["parent"] / reps)
            for totals in (self.calls, self.self_ns, self.children):
                totals.clear()
        self.inner_ns, self.leak_ns = min(inner), min(leak)

    def self_seconds(self, name: str) -> float:
        """Self time with the spans' own measured cost taken out."""
        ns = (self.self_ns[name] - self.calls[name] * self.inner_ns
              - self.children[name] * self.leak_ns)
        return max(0.0, ns) / 1e9

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(result, args) may add counts."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(out, args)
            return out

        return traced

    def wrap_generator(self, name: str, fn, count_name: str, item_name: str):
        """Generator function whose every step is a leaf span of its own."""

        def traced(*args, **kwargs):
            self.counts[count_name] += 1
            it = fn(*args, **kwargs)
            while True:
                self.enter(name, record=False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave()
                self.counts[item_name] += 1
                yield item

        return traced

    # -- patching ------------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_fn(self, owner, attr: str, name: str, after=None) -> None:
        if hasattr(owner, attr):
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def install(self) -> None:
        import setfam.boolfn as B
        import setfam.cli as C
        import setfam.distance as D
        import setfam.hardness as H
        import setfam.testers as T
        import setfam.violations as V

        for mod in (T, H, C):
            self.patch_fn(mod, "stream", "rng.stream")
        # _batch_band_points draws the weight batch and the per-row subsets.
        self.patch_fn(T, "_batch_band_points", "boolfn.band_sample")
        self.patch(T, "QueryCounter", self._counter_class(T.QueryCounter))
        found = self._count_if("violations.witnesses_found")
        self.patch_fn(T, "witness_check_uc", "violations.witness", found)
        self.patch_fn(T, "witness_check_int", "violations.witness", found)
        self.patch(V, "enumerate_down_band", self.wrap_generator(
            "boolfn.enumerate", V.enumerate_down_band,
            "boolfn.downsets", "boolfn.downset_points"))
        for name in ("uc_tester", "int_tester", "uc_triple_tester", "int_pair_tester"):
            self.patch(T, name, self._tester(getattr(T, name)))
        algorithms = dict(C.ALGORITHMS)
        for key, fn in C.ALGORITHMS.items():
            algorithms[key] = self._tester(fn)
        self.patch(C, "ALGORITHMS", algorithms)

        for mod in (D, C):
            self.patch_fn(mod, "dist_int_exact", "distance.dist_int")
            self.patch_fn(mod, "dist_uc_exact", "distance.dist_uc")
            self.patch_fn(mod, "is_union_closed", "distance.property_check")
            self.patch_fn(mod, "is_intersecting", "distance.property_check")
        self.patch_fn(D, "repair_uc", "distance.repair")
        self.patch_fn(D, "end_distinct_tuple_count", "distance.tuple_count")
        self.patch_fn(D, "disjoint_tuple_count_lb", "distance.tuple_count")
        self.patch_fn(V, "max_disjoint_i_pairs", "violations.matching")
        self.patch_fn(B.TruthTable, "ones", "boolfn.table_ones")
        self.patch_fn(B.TruthTable, "as_array", "boolfn.table_array")

        for mod in (H, C):
            self.patch_fn(mod, "build_int_instance", "hardness.build")
            self.patch_fn(mod, "build_uc_instance", "hardness.build")
        for cls in (H.UcInstance, H.IntersectInstance):
            self.patch_fn(cls, "materialize", "hardness.materialize",
                          self._add_points)
        self.patch_fn(C, "count_int_no_violations", "hardness.no_count")
        self.patch_fn(C, "count_uc_no_violations", "hardness.no_count")
        self.patch_fn(C, "unique_sat_probability", "hardness.mc", self._add_unique_samples)
        self.patch_fn(C, "estimate_bad_probability", "hardness.mc", self._add_bad_samples)
        self.patch_fn(C, "main", "cli.command")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers needing more than a span -----------------------------------------

    def _count_if(self, name: str):
        def after(out, _args):
            if out is not None:
                self.counts[name] += 1

        return after

    def _add_points(self, table, _args) -> None:
        self.counts["hardness.materialized_points"] += 1 << table.arity

    def _add_unique_samples(self, result, _args) -> None:
        self.counts["hardness.mc_samples"] += result.trials * len(result.per_weight)

    def _add_bad_samples(self, result, _args) -> None:
        self.counts["hardness.mc_samples"] += result.trials

    def _tester(self, fn):
        tracer = self

        def run(f, cfg):
            oracle = TracedOracle(tracer, f"oracle.{tracer.oracle_kind}", f)
            tracer.enter("testers.run")
            try:
                report = fn(oracle, cfg)
            finally:
                tracer.leave()
            tracer.counts["testers.iterations"] += report.iterations_run
            if report.verdict == "reject":
                tracer.counts["testers.rejects"] += 1
            return report

        return run

    def _counter_class(self, base):
        tracer = self

        class TracedCounter:
            """QueryCounter whose calls are spans (self time = the counter's cost)."""

            def __init__(self, inner):
                self._counter = base(inner)
                self.arity = self._counter.arity

            def __call__(self, x):
                tracer.enter("boolfn.counter", record=False)
                try:
                    return self._counter(x)
                finally:
                    tracer.leave()

            @property
            def count(self):
                return self._counter.count

        return TracedCounter

    # -- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "dropped": self.dropped, "inner_ns": self.inner_ns,
                       "leak_ns": self.leak_ns, "spans": self.spans}, fh)


class TracedOracle:
    """Oracle wrapper: each query is a span named after the oracle kind."""

    __slots__ = ("arity", "_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner):
        self.arity = inner.arity
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __call__(self, x: int) -> int:
        self._tracer.enter(self._name, record=False)
        try:
            return self._inner(x)
        finally:
            self._tracer.leave()


class _Empty:
    arity = 1

    def __call__(self, x: int) -> int:
        return 0
