"""Outside-in layer tracing for the traced benchmark pass.

`Tracer.install()` replaces the library functions at each layer boundary with
timing wrappers and `Tracer.uninstall()` puts the originals back; the
untraced pass never loads a wrapper. Spans record name, start, end, parent
span and run; a span's self time is its duration minus its child spans and
folded leaf calls. High-frequency leaf calls (`add_clause`, `new_var`, BFS)
are folded into a count and a time on their parent span instead of one span
each. Spans stay in memory until `write_spans` saves them.
"""

from __future__ import annotations

import json
from time import perf_counter

from mapfsat import diagrams, encoding, instance, pathing, satif, solvers

# (owner, attribute, span name); owners sharing one original share one wrapper
SPANS = [
    (solvers, "build_mdd", "diagrams.mdd"),
    (solvers, "build_smdd", "diagrams.smdd"),
    (solvers, "build_model", "encoding.build"),
    (solvers, "add_conflict_clauses", "encoding.conflicts"),
    (solvers, "extract_solution", "encoding.extract"),
    (solvers, "validate_solution", "instance.validate"),
    (solvers, "constrained_shortest_path", "pathing.search"),
    (pathing, "constrained_shortest_path", "pathing.search"),
    (solvers, "new_and_path", "pathing.and_path"),
    (solvers, "new_or_paths", "pathing.or_paths"),
    (solvers, "shortest_path", "pathing.shortest"),
    (satif.CdclSolver, "solve", "satif.solve"),
]
LEAVES = [
    (solvers, "bfs_distances", "pathing.bfs"),
    (pathing, "bfs_distances", "pathing.bfs"),
    (diagrams, "bfs_distances", "pathing.bfs"),
    (encoding, "bfs_distances", "pathing.bfs"),
    (satif.CdclSolver, "add_clause", "satif.add_clause"),
    (satif.CdclSolver, "new_var", "satif.new_var"),
]
CLASSMETHOD_SPANS = [(instance.Solution, "from_paths", "instance.from_paths")]
ROOT = "solvers.run"


def _mdd_nodes(mdd):
    return mdd.node_count


def _model_size(model):
    return (model.solver.num_vars, model.solver.num_clauses)


def _found(result):
    return result is not None


# what a span keeps of its function's return value
OUTCOMES = {
    "diagrams.mdd": _mdd_nodes,
    "encoding.build": _model_size,
    "satif.solve": bool,
    "pathing.search": _found,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "inner", "leaves", "outcome")

    def __init__(self, name: str, start: float, parent: int, run: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.inner = 0.0          # time covered by child spans and folded leaves
        self.leaves: dict[str, list] = {}
        self.outcome = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.inner


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.runs: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ----- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), parent, len(self.runs) - 1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].inner += span.end - span.start

    def _fold(self, name: str, elapsed: float) -> None:
        parent = self.spans[self._stack[-1]]
        parent.inner += elapsed
        slot = parent.leaves.get(name)
        if slot is None:
            parent.leaves[name] = [1, elapsed]
        else:
            slot[0] += 1
            slot[1] += elapsed

    def run(self, run_id: str, fn, *args):
        """Call `fn(*args)` under a root span for one solver run."""
        self.runs.append(run_id)
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn):
        keep = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    span.outcome = keep(result)
                return result
            finally:
                self._close(span)
        return traced

    def _leaf_wrapper(self, name: str, fn):
        def leaf(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold(name, perf_counter() - t0)
        return leaf

    # ----- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for owner, attr, name in table:
                original = owner.__dict__[attr]
                wrapper = wrappers.setdefault(id(original), make(name, original))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        for owner, attr, name in CLASSMETHOD_SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, classmethod(self._span_wrapper(name, original.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def wrapped_names() -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in (*SPANS, *LEAVES, *CLASSMETHOD_SPANS)]

    # ----- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": self.runs[s.run], "self_s": s.self_s,
                    "leaves": s.leaves, "outcome": s.outcome,
                }, separators=(",", ":")) + "\n")

    def layer_totals(self) -> dict[str, dict]:
        """Per span or leaf name: calls, self seconds, max span seconds."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += s.self_s
            agg["max_s"] = max(agg["max_s"], s.end - s.start)
            for leaf, (count, elapsed) in s.leaves.items():
                lagg = out.setdefault(leaf, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
                lagg["calls"] += count
                lagg["self_s"] += elapsed
        return out

    def outcomes(self, name: str) -> list:
        """Kept return values of the spans of `name` that returned."""
        return [s.outcome for s in self.spans if s.name == name and s.outcome is not None]
