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
refinements, enumerate_repairs, refresh_agenda, select_flaw and rank
with the engine, so a node count that differs from plan_search's
points at the incremental layer.
"""

from __future__ import annotations

import heapq
import random

from poclab.flaws import enumerate_repairs, refresh_agenda
from poclab.plan import NONSEPARABLE, make_skeletal_plan
from poclab.search import EXHAUSTED, NODE_LIMIT, SOLVED, rank, refinements
from poclab.strategies import RepairTable, select_flaw


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


def reference_search(domain, problem, strategy, config) -> tuple:
    """(status, generated, expanded, pruned, max_frontier) of the search
    that plan_search runs, which must have no time limit."""
    assert config.time_limit is None
    rng = random.Random(config.seed)
    root = make_skeletal_plan(domain, problem, config.reverse_preconditions)
    if config.cost_mode == "cached" or strategy.cached_costs:
        costed = [f._replace(cached_cost=len(enumerate_repairs(root, f, domain))) for f in root.agenda]
        root = root._replace(agenda=tuple(costed))
    frontier = [(rank(root, config.rank), 0, root)]
    generated, expanded, pruned, max_frontier = 1, 0, 0, 1
    while frontier:
        node = refresh_agenda(heapq.heappop(frontier)[2])
        if not node.agenda:
            return SOLVED, generated, expanded, pruned, max_frontier
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
            generated += 1
            heapq.heappush(frontier, (rank(child, config.rank), -generated, child))
        max_frontier = max(max_frontier, len(frontier))
        if config.node_limit is not None and generated >= config.node_limit and frontier:
            return NODE_LIMIT, generated, expanded, pruned, max_frontier
    return EXHAUSTED, generated, expanded, pruned, max_frontier
