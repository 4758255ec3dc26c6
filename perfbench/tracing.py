"""Span tracing from outside the program.

The tracer replaces the layer entry points that the search reaches
through module globals (and two store methods) with wrappers that record
one span per call: its name, start, end, parent span and one integer
measured from the call's result (a hit, a count of repairs, ...).  Spans
stay in memory, in flat arrays, until the run ends; per-layer numbers
are computed from them afterwards, self time being a span's duration
minus the durations of its child spans.  `uninstall` puts back the very
objects it replaced.
"""

from __future__ import annotations

import json
import operator
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

from poclab import bench, domains, flaws, plan, search, strategies, terms


def _length(args, result) -> int:
    return len(result)


def _truth(args, result) -> int:
    return int(bool(result))


def _falsity(args, result) -> int:
    return int(not result)


def _changed(args, result) -> int:
    return int(result is not args[0])


# (owner, attribute, span name, result measure).  Owners are the
# namespaces the callers look the names up in, so the search's own calls
# go through the wrappers.
TARGETS = (
    (search, "plan_search", "search", None),
    (search, "refresh_agenda", "flaws.refresh_agenda", _changed),
    (search, "has_any_repair", "flaws.has_any_repair", _falsity),
    (search, "select_flaw", "strategies.select_flaw", None),
    (search, "refinements", "search.refinements", _length),
    (search, "enumerate_repairs", "flaws.enumerate_repairs", _length),
    (search, "_with_cached_costs", "search.cache_costs", None),
    (search, "detect_new_threats", "flaws.detect_new_threats", _length),
    (search, "unify", "terms.unify", None),
    (search, "dmin_feasible", "search.dmin_feasible", None),
    (search, "rank", "search.rank", None),
    (search, "validate_solution", "plan.validate_solution", None),
    (search, "make_skeletal_plan", "plan.make_skeletal_plan", None),
    (strategies, "enumerate_repairs", "flaws.enumerate_repairs", _length),
    (strategies, "enumerate_open_repairs", "flaws.enumerate_repairs", _length),
    (flaws, "args_unifiable", "terms.args_unifiable", _truth),
    (flaws, "schema_effect_unifies", "flaws.schema_effect_unifies", None),
    (plan.OrderingStore, "with_ordering", "plan.with_ordering", None),
    (terms.BindingStore, "require_distinct", "terms.require_distinct", None),
    (bench, "build_overrun_table", "bench.overrun_table", None),
    (bench, "render_csv", "bench.render_csv", None),
    (domains, "bundled", "domains.parse", None),
)
# search.heapq is replaced by a namespace whose push and pop are wrapped
FRONTIER = "search.frontier"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, measure=None):
        nid = self._id(name)
        names, parent, start, end, value, stack = (
            self.name, self.parent, self.start, self.end, self.value, self._stack,
        )
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            value.append(0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in TARGETS:
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], measure))
        heap = search.heapq
        self._patch(search, "heapq", types.SimpleNamespace(
            heappush=self.wrap(FRONTIER, heap.heappush),
            heappop=self.wrap(FRONTIER, heap.heappop),
        ))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def aggregate(self) -> dict[str, list[int]]:
        """name -> [calls, inclusive ns, self ns, sum of measures].

        flaws.enumerate_repairs is split by its parent span: `.select`
        under strategies.select_flaw, `.insert` under search.cache_costs
        (costing at flaw insertion), `.refine` under search.refinements
        (enumerating children) and `.probe` under the search loop (the
        dmin probe).
        """
        n = len(self.name)
        name, parent, value = self.name, self.parent, self.value
        dur = array("q", map(operator.sub, self.end, self.start))
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        split = self._ids.get("flaws.enumerate_repairs")
        context = {
            self._ids.get("strategies.select_flaw"): ".select",
            self._ids.get("search.cache_costs"): ".insert",
            self._ids.get("search.refinements"): ".refine",
            self._ids.get("search"): ".probe",
        }
        keys = self.names
        out: dict[str, list[int]] = {}
        for i in range(n):
            nid = name[i]
            key = keys[nid]
            if nid == split:
                key += context.get(name[parent[i]], ".other")
            row = out.get(key)
            if row is None:
                row = out[key] = [0, 0, 0, 0]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += value[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as raw native-order arrays behind a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"], ["value", "q"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.value):
                arr.tofile(f)


def snapshot() -> list[tuple[object, str, object]]:
    """The objects the tracer replaces, to check afterwards that none leaked."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS] + [
        (search, "heapq", search.heapq)
    ]


def leaks(snap: list[tuple[object, str, object]]) -> list[str]:
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, obj in snap
        if vars(owner)[attr] is not obj
    ]


def layer_metrics(agg: dict, traced: list, untraced: list, replay_us: dict) -> dict:
    """Per-layer metrics (value, unit) from the aggregated spans of the
    traced cells, their search counters, the untraced rerun of the same
    cells, and the replay timings."""

    def calls(key):
        return agg.get(key, (0,))[0]

    def seconds(key):
        return agg.get(key, (0, 0))[1] / 1e9

    def self_seconds(key):
        return agg.get(key, (0, 0, 0))[2] / 1e9

    def measured(key):
        return agg.get(key, (0, 0, 0, 0))[3]

    def ratio(a, b):
        return a / b if b else 0.0

    done = [r for r in traced if r.fingerprint]
    generated = sum(r.fingerprint[1] for r in done)
    expanded = sum(r.fingerprint[2] for r in done)
    pruned = sum(r.fingerprint[3] for r in done)
    sel = "flaws.enumerate_repairs.select"
    ins = "flaws.enumerate_repairs.insert"
    m = {
        "terms.args_unifiable.calls": (calls("terms.args_unifiable"), "count"),
        "terms.args_unifiable.s": (seconds("terms.args_unifiable"), "s"),
        "terms.args_unifiable.true_ratio": (
            ratio(measured("terms.args_unifiable"), calls("terms.args_unifiable")), "ratio"),
        "terms.unify.calls": (calls("terms.unify"), "count"),
        "terms.unify.s": (seconds("terms.unify"), "s"),
        "terms.require_distinct.calls": (calls("terms.require_distinct"), "count"),
        sel + ".calls": (calls(sel), "count"),
        sel + ".s": (seconds(sel), "s"),
        "flaws.repairs_per_cost": (ratio(measured(sel), calls(sel)), "ratio"),
        ins + ".calls": (calls(ins), "count"),
        ins + ".s": (seconds(ins), "s"),
        "flaws.schema_effect_unifies.calls": (calls("flaws.schema_effect_unifies"), "count"),
        "flaws.schema_effect_unifies.s": (seconds("flaws.schema_effect_unifies"), "s"),
        "flaws.has_any_repair.calls": (calls("flaws.has_any_repair"), "count"),
        "flaws.has_any_repair.s": (seconds("flaws.has_any_repair"), "s"),
        "flaws.has_any_repair.deadend_ratio": (
            ratio(measured("flaws.has_any_repair"), calls("flaws.has_any_repair")), "ratio"),
        "flaws.refresh_agenda.calls": (calls("flaws.refresh_agenda"), "count"),
        "flaws.refresh_agenda.s": (seconds("flaws.refresh_agenda"), "s"),
        "flaws.refresh_agenda.changed_ratio": (
            ratio(measured("flaws.refresh_agenda"), calls("flaws.refresh_agenda")), "ratio"),
        "flaws.detect_new_threats.calls": (calls("flaws.detect_new_threats"), "count"),
        "flaws.detect_new_threats.s": (seconds("flaws.detect_new_threats"), "s"),
        "flaws.detect_new_threats.threats_found": (measured("flaws.detect_new_threats"), "count"),
        "strategies.select_flaw.calls": (calls("strategies.select_flaw"), "count"),
        "strategies.select_flaw.self_s": (self_seconds("strategies.select_flaw"), "s"),
        "strategies.costs_per_select": (ratio(calls(sel), calls("strategies.select_flaw")), "ratio"),
        "search.nodes_generated": (generated, "count"),
        "search.nodes_expanded": (expanded, "count"),
        "search.nodes_pruned": (pruned, "count"),
        "search.prune_ratio": (ratio(pruned, expanded + pruned), "ratio"),
        "search.max_frontier": (max((r.max_frontier for r in done), default=0), "count"),
        "search.refinements.self_s": (self_seconds("search.refinements"), "s"),
        "search.children_per_expansion": (
            ratio(measured("search.refinements"), calls("search.refinements")), "ratio"),
        "search.frontier.s": (seconds(FRONTIER), "s"),
        "search.rank.s": (seconds("search.rank"), "s"),
        "search.dmin_feasible.calls": (calls("search.dmin_feasible"), "count"),
        "search.dmin_feasible.s": (seconds("search.dmin_feasible"), "s"),
        "search.self_s": (self_seconds("search"), "s"),
        "plan.with_ordering.calls": (calls("plan.with_ordering"), "count"),
        "plan.validate_solution.calls": (calls("plan.validate_solution"), "count"),
        "plan.validate_solution.s": (seconds("plan.validate_solution"), "s"),
        "plan.make_skeletal_plan.s": (seconds("plan.make_skeletal_plan"), "s"),
        "domains.parse.s": (seconds("domains.parse"), "s"),
        "bench.overrun_table.s": (seconds("bench.overrun_table"), "s"),
        "bench.render_csv.s": (seconds("bench.render_csv"), "s"),
        "trace.overhead_ratio": (
            ratio(sum(r.seconds for r in traced), sum(r.seconds for r in untraced)), "ratio"),
    }
    for name, us in replay_us.items():
        m[f"replay.{name}.us"] = (us, "us")
    return m
