"""A from-scratch reference for the search loop, used by the tests.

search._search reuses its parents' work: repair lists inherited and
re-checked against the refinement's Delta, an agenda refresh that
re-tests only what the Delta names, a dead-end probe that answers from
the domain and the orderings, and children built only at their pop.
This loop reuses nothing.  It builds every child when it pushes it,
refreshes the whole agenda at each pop, enumerates every flaw's repairs
and gives selection a fresh RepairTable.  Each child's new variables
and flaws are numbered on from its parent's (SearchContext.resuming,
refinements' default), not from one search-wide counter; the search
module's docstring says why that moves no count.  It shares only
refinements, enumerate_repairs, refresh_agenda, select_flaw, rank and
ground_assignment with the engine, so a node count that differs from
plan_search's points at the incremental layer.  In cached-cost mode it
also costs each child's new flaws in the child as soon as refinements
returns it, where the engine costs them only when it expands the child;
so it checks that costing late moves no count.

Run as a script, it checks every golden cell of the three benchmark
workloads and exits 1 on any mismatch:

    python tests/reference.py
"""

from __future__ import annotations

import heapq
import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # import poclab and perfbench from this checkout
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads
from poclab.domains import bundled, bundled_names
from poclab.flaws import enumerate_repairs, refresh_agenda
from poclab.plan import NONSEPARABLE, ground_assignment, make_skeletal_plan
from poclab.search import EXHAUSTED, NODE_LIMIT, SOLVED, SearchConfig, parse_rank, rank, refinements
from poclab.strategies import RepairTable, builtin, select_flaw


def _orderable(threats, orderings) -> bool:
    """Can every threat be promoted or demoted, all at once?"""
    if not threats:
        return True
    f = threats[0]
    for before, after in ((f.link.consumer, f.step), (f.step, f.link.producer)):
        nxt = orderings.with_ordering(before, after)
        if nxt is not None and _orderable(threats[1:], nxt):
            return True
    return False


def _costed(plan, domain):
    """`plan` with each flaw that has no cached cost given its repair count."""
    costed = [
        f if f.cached_cost is not None else replace(f, cached_cost=len(enumerate_repairs(plan, f, domain)))
        for f in plan.agenda
    ]
    return replace(plan, agenda=tuple(costed))


def reference_search(domain, problem, strategy, config) -> tuple:
    """(status, generated, expanded, pruned, max_frontier) of the search
    that plan_search runs, which must have no time limit."""
    assert config.time_limit is None
    rng = random.Random(config.seed)
    root = make_skeletal_plan(domain, problem, config.reverse_preconditions)
    cached = config.cost_mode == "cached"
    if cached or strategy.cached_costs:
        root = _costed(root, domain)
    frontier = [(rank(root, config.rank), 0, root)]
    generated, expanded, pruned, max_frontier = 1, 0, 0, 1
    while frontier:
        node = refresh_agenda(heapq.heappop(frontier)[2])
        if not node.agenda:
            if ground_assignment(node, tuple(problem.objects) + domain.constants) is not None:
                return SOLVED, generated, expanded, pruned, max_frontier
            pruned += 1  # a flaw-free dead end: no grounding keeps its separations
            continue
        repairs = {id(f): enumerate_repairs(node, f, domain) for f in node.agenda}
        nonsep = [f for f in node.agenda if f.kind == NONSEPARABLE]
        if (config.dead_end_pruning and not all(repairs.values())) or (
            config.dmin_check
            and nonsep
            and all(len(repairs[id(f)]) >= 2 for f in nonsep)
            and not _orderable(nonsep, node.orderings)
        ):
            pruned += 1
            continue
        flaw = select_flaw(strategy, node, domain, rng, config.cost_mode, RepairTable(node, domain))
        expanded += 1
        for child, _ in refinements(node, flaw, domain, config):
            if cached:
                child = _costed(child, domain)
            generated += 1
            heapq.heappush(frontier, (rank(child, config.rank), -generated, child))
        max_frontier = max(max_frontier, len(frontier))
        if config.node_limit is not None and generated >= config.node_limit and frontier:
            return NODE_LIMIT, generated, expanded, pruned, max_frontier
    return EXHAUSTED, generated, expanded, pruned, max_frontier


def check_golden(workload: workloads.Workload, node_cap: int | None = None) -> tuple[int, list[str]]:
    """(cells checked, mismatches) of the reference against `workload`'s
    golden record: status, node counts and largest frontier of each
    cell under `node_cap` golden nodes, or of every cell when it is None."""
    problems = {p.name: (dom, p) for d in bundled_names() for dom, probs in [bundled(d)] for p in probs}
    cells = json.loads((ROOT / "perfbench" / "golden" / f"{workload.name}.json").read_text())["cells"]
    fields = ("status", "generated", "expanded", "pruned", "max_frontier")
    checked, mismatched = 0, []
    for key, want in cells.items():
        if node_cap is not None and want["generated"] >= node_cap:
            continue
        name, problem, rank_text = key.split("|")
        dom, prob = problems[problem]
        config = SearchConfig(rank=parse_rank(rank_text), node_limit=workloads.NODE_LIMIT, **dict(workload.toggles))
        got = reference_search(dom, prob, builtin(name), config)
        if got != tuple(want[f] for f in fields):
            mismatched.append(f"{workload.name} {key}: {got}")
        checked += 1
    return checked, mismatched


if __name__ == "__main__":
    failed = False
    for workload in workloads.WORKLOADS.values():
        t0 = time.perf_counter()
        checked, mismatched = check_golden(workload)
        print(f"{workload.name}: {checked} cells checked, {len(mismatched)} mismatches, "
              f"{time.perf_counter() - t0:.1f} s")
        for line in mismatched:
            print(f"  {line}")
        failed = failed or bool(mismatched)
    sys.exit(1 if failed else 0)
