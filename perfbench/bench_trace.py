"""Per-layer tracing of prefhtn from outside the package.

The tracer replaces, for the length of one traced pass, the public functions
each prefhtn module exposes at the sites where other modules call them, and
puts every original back afterwards. Nothing under src/ knows about it.

Coarse layer calls become spans (name, start, end, parent, instance id) kept
in memory and written out once at the end. Calls made a hundred thousand
times per pass (formula simplification, termination lookups) are only
counted and timed in aggregate, so their cost is part of the self time of
whichever span called them. Residual progression is counted in a pass of its
own: hashing every residual to count the distinct ones costs more than the
progression itself, and would swamp the timed layers.
"""

from __future__ import annotations

import contextlib
import time
import types
from collections import Counter


class Tracer:
    """Spans, counters and the attribute patches of one traced session."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, instance, start, end]
        self.stack: list[int] = []    # indices of the open spans
        self.instance = -1            # id of the instance being solved
        self.counts: Counter = Counter()
        self.ns: Counter = Counter()  # aggregate-only timers, nanoseconds
        self.residuals: set = set()
        self.heap_peak = 0
        self._patches: list[tuple] = []
        self._active: set[str] = set()

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.instance,
                           time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self.stack.pop()

    def spanned(self, name: str, fn):
        """`fn` under a span; a call nested in a span of the same name (a
        recursive layer) runs unwrapped, so only the outer call counts."""
        def wrapper(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._active.discard(name)
                self.counts[name + ".calls"] += 1
        return wrapper

    def timed(self, name: str, fn):
        """`fn` counted and timed in aggregate, without a span."""
        counts, ns, clock = self.counts, self.ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[name] += clock() - t0
                counts[name + ".calls"] += 1
        return wrapper

    @contextlib.contextmanager
    def instance_span(self, instance: int):
        """The root span of one instance's solve."""
        self.instance = instance
        idx = self._open("instance")
        try:
            yield
        finally:
            self._close(idx)
            self.instance = -1

    # --- patches -----------------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_parser(self, prefhtn) -> None:
        parser = prefhtn.parser
        for attr in ("parse_domain", "parse_problem", "parse_preference"):
            self.patch(parser, attr,
                       self.spanned("parser.parse", getattr(parser, attr)))

    def install(self, prefhtn) -> None:
        """Wrap every layer at its call sites in the search, oracle,
        progression, model, formulas and semantics modules."""
        search, oracle = prefhtn.search, prefhtn.oracle
        prog, model = prefhtn.progression, prefhtn.model
        formulas, semantics = prefhtn.formulas, prefhtn.semantics

        solve = search.solve
        self.patch(search, "solve", self._solve_wrapper(solve))
        self.patch(oracle, "solve", self._solve_wrapper(solve))
        self.patch(search, "make_root",
                   self.spanned("search.make_root", search.make_root))
        self.patch(search._Expander, "expand",
                   self.spanned("search.expand", search._Expander.expand))
        self.patch(search, "satisfiers",
                   self._satisfiers_wrapper(search.satisfiers))
        self.patch(search, "heapq", self._heap_shim(search.heapq))

        self.patch(model.Trace, "extend",
                   self._extend_wrapper(model.Trace.extend))
        self.patch(model, "apply_event",
                   self.spanned("model.apply_event", model.apply_event))

        self.patch(prog, "step", self.spanned("progression.step", prog.step))
        self.patch(prog, "bounds",
                   self.spanned("progression.bounds", prog.bounds))
        self.patch(prog, "progress_trace",
                   self.spanned("progression.progress_trace",
                                prog.progress_trace))

        self.patch(formulas, "mk_and",
                   self.timed("formulas.simplify", formulas.mk_and))
        self.patch(formulas, "mk_or",
                   self.timed("formulas.simplify", formulas.mk_or))

        self.patch(semantics, "weight_gpf",
                   self.spanned("semantics.weight_gpf", semantics.weight_gpf))
        self.patch(semantics, "terminated_at",
                   self.timed("semantics.terminated_at",
                              semantics.terminated_at))
        self.patch(oracle, "enumerate_all",
                   self._enumerate_wrapper(oracle.enumerate_all))

    # --- layer-specific wrappers --------------------------------------------

    def _solve_wrapper(self, fn):
        inner = self.spanned("search.solve", fn)

        def solve(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["search.expansions"] += result.stats.nodes_expanded
            self.counts["search.considered"] += result.stats.nodes_considered
            return result
        return solve

    def _enumerate_wrapper(self, fn):
        inner = self.spanned("oracle.enumerate", fn)

        def enumerate_all(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["oracle.plans"] += result.plan_count
            return result
        return enumerate_all

    def _satisfiers_wrapper(self, fn):
        """satisfiers is a generator: its work runs at each resumption,
        interleaved with the caller's, so each resumption is its own span."""
        def satisfiers(*args, **kwargs):
            self.counts["search.satisfiers.calls"] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open("search.satisfiers")
                    try:
                        sigma = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts["search.satisfiers.yields"] += 1
                    yield sigma
            finally:
                it.close()
        return satisfiers

    def _heap_shim(self, heapq):
        """Stands in for the heapq module as seen from prefhtn.search only."""
        push = self.spanned("search.heap", heapq.heappush)
        pop = self.spanned("search.heap", heapq.heappop)

        def heappush(heap, item):
            push(heap, item)
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)
        return types.SimpleNamespace(heappush=heappush, heappop=pop)

    def _extend_wrapper(self, fn):
        inner = self.spanned("model.trace_extend", fn)

        def extend(trace, event, domain):
            self.counts["model.events_copied"] += len(trace.events)
            return inner(trace, event, domain)
        return extend

    def install_residual_counter(self, prefhtn) -> None:
        """Count progress_bdf calls and the distinct residuals they see."""
        prog = prefhtn.progression
        fn, counts, residuals = prog.progress_bdf, self.counts, self.residuals

        def progress_bdf(phi, ctx):
            counts["progression.progress_bdf.calls"] += 1
            residuals.add(phi)
            return fn(phi, ctx)
        self.patch(prog, "progress_bdf", progress_bdf)

    # --- results -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive, self) nanoseconds per span name. A span's self time
        is its duration minus the durations of its direct children, which
        never overlap in a single-threaded program."""
        inclusive: Counter = Counter()
        child = [0] * len(self.spans)
        for name, parent, _inst, start, end in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, _p, _i, start, end), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return inclusive, own

    def write_spans(self, path, instance_names) -> None:
        """One CSV row per span; times in nanoseconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,instance,start_ns,end_ns\n")
            for i, (name, parent, inst, start, end) in enumerate(self.spans):
                label = instance_names[inst] if inst >= 0 else ""
                fh.write(f"{i},{parent},{name},{label},{start},{end}\n")
