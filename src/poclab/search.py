"""Best-first plan-space search: node selection, refinement, pruning, limits.

Node selection pops the minimum-rank plan (ties: most recently generated
first).  Flaw selection is delegated to the strategy; every repair of
the selected flaw makes one child, and refinements() is the one place a
child is built, in one pass that also adds the flaws the repair makes.
A node any of whose flaws has repair cost zero is a dead end and is
pruned before expansion (switchable); so is a flaw-free node whose
bindings have no grounding.  In cached-cost mode a flaw's
insertion-time cost is its repair count in the node that added it,
taken when that node is expanded: after its refresh, the dead-end probe
and the dmin test, just before flaw selection.  The node's RepairTable
keeps each counted list, so a costed flaw that is then selected is not
enumerated again.  Every inherited flaw was costed when the parent was
expanded; the node's new flaws were found against its own stores, so
its refresh gives them back unchanged; and the stores do not change
between a child's build and its pop.  So each count is the one the
child would get at its build, and a child that is never popped, or a
node that is pruned, is never costed.
Each child is counted (nodes_generated) and ranked when it is pushed,
but built only when something reads it: at its pop, unless the rank
weighs threats (a child's new threats are known only once it is built)
or an observer's on_expand hook (see plan_search) reads the children of
each expansion; then every child is built at push.  Under a
rank that gives threats no weight, a child's rank needs only its step
and open-condition counts, and both follow from its parent and its
repair: a new step adds one step and one open condition per
precondition, the repaired open condition goes, and no refresh drops an
open condition.  So a child that is never popped is never built.
Fresh variable ids and flaw stamps are drawn when a child is built, so
a child built at its pop numbers its new variables and flaws later than
at push; but they are still larger than every id and stamp of its
parent, so the relative order within every plan, which is all that
LIFO/FIFO, the union kernel's lowest-(vid, name) leader and
plan.ground_assignment's class order read, is the same, and so are
every node count and every solution.
A frontier entry carries a rank, its tie-break, a plan, its parent's
successor rows and open-condition repair lists (one pair, shared by all
the children of one expansion) and one of two pairs: (None, the Delta
that refinements() made with the child) when the plan is a built child,
or (the parent's selected flaw, the repair to apply) when the plan is
the parent, whose pop builds the child.  The Delta says whether the
refinement reordered, whether it added a step, which classes of the
parent's terms it rebound, and whether the child is doomed: whether one
of its new threats is nonseparable and can be neither promoted nor
demoted.  A popped node pays only for what its refinement changed.
Under dead-end pruning a doomed child is counted as pruned at its pop,
with no refresh and no probe: its new threat was found against its own
stores, so the refresh would give it back, and the probe would answer
False for it.  Any other child's agenda refresh and its re-check of the
inherited lists (strategies.RepairTable, in place of enumerating the
opens again) re-test only what the Delta touches (flaws.Delta.touches),
and an inherited list's reuse orderings only when the open's own row
differs from the parent's.  The dead-end probe reads the agenda newest
first, since the refinement's own flaws are where it makes dead ends;
it reads the lists, and asks flaws.has_any_repair only of flaws with no
inherited list, which answers most of those from the domain and the
orderings.
Both limits, nodes and time, are checked after each expansion, so a run
can overshoot its node limit by one batch of children; %-overrun
accounting clamps to the nominal limit.
A search runs with the cyclic garbage collector paused.  Everything it
builds (plans, stores, flaws, repair lists, frontier entries) is an
acyclic value, so reference counting frees it, and the collector would
only re-trace the young objects every child allocates and, on its full
passes, the whole frontier.  The collector is restored when the search
returns or raises, so reference cycles an observer makes during a
search are collected only after it.
"""

from __future__ import annotations

import gc
import heapq
import random
import re
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count

from .domains import Domain, Problem
from .flaws import (
    DEMOTE,
    NEW_STEP,
    PROMOTE,
    SEPARATE,
    _UNBOUND,
    Delta,
    Repair,
    detect_new_threats,
    enumerate_repairs,
    has_any_repair,
    orderable,
    refresh_agenda,
    threat_ordering,
)
from .plan import (
    NONSEPARABLE,
    OPEN,
    CausalLink,
    Flaw,
    PartialPlan,
    _plan_variables,
    ground_assignment,
    instantiate_step,
    make_skeletal_plan,
    open_conditions,
    validate_solution,
)
from .strategies import RepairTable, Strategy, select_flaw
from .terms import unify

SOLVED = "solved"
EXHAUSTED = "exhausted"
NODE_LIMIT = "node-limit"
TIME_LIMIT = "time-limit"


@dataclass(frozen=True)
class RankWeights:
    """Coefficients for the (steps, opens, threats) node ranking.
    Integral coefficients are ints, so ranks under them are ints too."""

    w_steps: int | Fraction = 1
    w_open: int | Fraction = 1
    w_threats: int | Fraction = 0

    @property
    def label(self) -> str:
        parts = []
        for coef, name in ((self.w_steps, "S"), (self.w_open, "OC"), (self.w_threats, "UC")):
            if coef == 0:
                continue
            if coef == 1:
                parts.append(name)
            else:
                parts.append(f"{_coef_text(coef)}{name}")
        return "+".join(parts) if parts else "0"


def _coef_text(f: int | Fraction) -> str:
    """`f` as parse_rank reads it back: an integer or its exact decimal.
    Only a fraction with no finite decimal, such as 1/3, is written n/d."""
    if f.denominator == 1:
        return str(f.numerator)
    k = f.denominator.bit_length()  # 10**k is a multiple of any 2**a * 5**b up to the denominator
    scaled = f * 10**k
    if scaled.denominator != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = str(abs(scaled.numerator)).rjust(k + 1, "0")
    return f"{'-' * (f < 0)}{digits[:-k]}.{digits[-k:]}".rstrip("0")


_RANK_TERM = re.compile(r"^(\d*\.?\d*)(S|OC|UC)$")


def parse_rank(text: str) -> RankWeights:
    """Rank strings are sums of S, OC, UC with optional decimal
    coefficients, e.g. "S+OC", "S+OC+UC", "S+OC+.1UC".  Integral
    coefficients come back as ints, the others as exact Fractions."""
    weights: dict[str, int | Fraction] = {"S": 0, "OC": 0, "UC": 0}
    seen = set()
    for raw in text.split("+"):
        term = raw.strip()
        m = _RANK_TERM.match(term)
        if m is None:
            raise ValueError(
                f"unsupported rank term '{term}': only S, OC and UC are available"
            )
        coef, name = m.group(1), m.group(2)
        if name in seen:
            raise ValueError(f"rank term '{name}' appears twice")
        seen.add(name)
        if coef == ".":
            raise ValueError(f"bad coefficient in rank term '{term}'")
        value = Fraction("0" + coef if coef.startswith(".") else coef or "1")
        weights[name] = value.numerator if value.denominator == 1 else value
    return RankWeights(weights["S"], weights["OC"], weights["UC"])


def rank(plan: PartialPlan, w: RankWeights) -> int | Fraction:
    n_open = plan.n_open  # counted once: the threats are the rest of the agenda
    return w.w_steps * plan.n_steps + w.w_open * n_open + w.w_threats * (len(plan.agenda) - n_open)


@dataclass(frozen=True)
class SearchConfig:
    rank: RankWeights = RankWeights()
    node_limit: int | None = None
    time_limit: float | None = None
    reverse_preconditions: bool = False
    cost_mode: str = "exact"  # "exact" | "cached"
    dead_end_pruning: bool = True
    dmin_check: bool = False
    systematic: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.cost_mode not in ("exact", "cached"):
            raise ValueError(f"cost_mode must be 'exact' or 'cached', got {self.cost_mode!r}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    max_frontier: int = 0
    wall_seconds: float = 0.0
    seed: int = 0
    grounded_variables: int = 0
    children_built: int = 0  # children refinements() built, at push or at pop
    children_doomed: int = 0  # of those, the ones it marked doomed (Delta.doomed)
    flaws_costed: int = 0  # insertion-time costings in cached-cost mode, the root's included


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    plan: PartialPlan | None
    stats: SearchStats

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


class SearchContext:
    """Per-search counters: fresh variable ids for new steps' parameters
    and insertion stamps for new flaws."""

    def __init__(self, vid: int = 0, stamp: int = 0):
        self.vids = count(vid)
        self.stamps = count(stamp)

    @staticmethod
    def resuming(plan: PartialPlan) -> SearchContext:
        """Context whose counters continue past everything in `plan`;
        lets refinements() be called on hand-built plans."""
        max_vid = max((t.vid for t in _plan_variables(plan)), default=-1)
        max_stamp = max((f.inserted_at for f in plan.agenda), default=-1)
        return SearchContext(max_vid + 1, max_stamp + 1)


def _with_cached_costs(table: RepairTable, flaws: tuple[Flaw, ...]) -> tuple[Flaw, ...]:
    """`flaws` with their insertion-time repair costs in table.plan filled
    in; `table` keeps each list it counts for the costed flaw."""
    costed = []
    for f in flaws:
        hit = table._lists.get(id(f))  # (f, its list) if the dmin test has read it
        repairs = table.counted[f.inserted_at] = hit[1] if hit else enumerate_repairs(table.plan, f, table.domain)
        costed.append(Flaw(f.kind, f.step, f.literal, f.link, f.inserted_at, len(repairs)))
    return tuple(costed)


def refinements(
    plan: PartialPlan,
    flaw: Flaw,
    domain: Domain,
    config: SearchConfig | None = None,
    ctx: SearchContext | None = None,
    repairs: Sequence[Repair] | None = None,
) -> list[tuple[PartialPlan, Delta]]:
    """One (child, Delta) pair per repair of `flaw` (assumed refreshed)
    in `repairs`, by default every one: the only place a child plan is
    built.  A threat repair adds one ordering or one disequality; its
    Delta only reorders, or rebinds the parent representatives of the
    separated pair.  An establishment links its producer (the start
    step, a reused step, or a new step whose preconditions become open
    conditions) to the flaw's step and adds the threats it makes; the
    child is built again only if it gains threats.  No flaw is costed
    here: in cached-cost mode the search costs a node's new flaws when
    it expands the node.  An establishment's Delta rebinds
    the child's representative of each term of the linked condition,
    and of an init or reuse effect, whose representative changed (a new
    step's effect holds no term of the parent but constants, which lead
    their classes), and both ends of every disequality the parent
    lacks.  It marks the child doomed when one of the threats it adds
    is nonseparable and has neither promotion nor demotion in the
    child's orderings (flaws.orderable, the dead-end probe's own test);
    only an establishment adds threats."""
    config = config or SearchConfig()
    ctx = ctx or SearchContext.resuming(plan)
    if repairs is None:
        repairs = enumerate_repairs(plan, flaw, domain)
    rest = tuple([f for f in plan.agenda if f is not flaw])
    if len(rest) == len(plan.agenda):
        raise ValueError("selected flaw is not on the agenda")
    old = plan.bindings
    children = []
    for repair in repairs:
        kind = repair.kind
        if kind == PROMOTE or kind == DEMOTE:
            orderings = plan.orderings.with_ordering(*threat_ordering(flaw, kind))
            children.append((PartialPlan(plan.steps, plan.links, orderings, old, rest), _UNBOUND[True, False]))
            continue
        if kind == SEPARATE:
            a, b = repair.pair
            rep = old._rep.get
            bindings = old.require_distinct(a, b)
            delta = Delta(False, False, frozenset((rep(a, a), rep(b, b))))
            children.append((PartialPlan(plan.steps, plan.links, plan.orderings, bindings, rest), delta))
            continue

        if kind == NEW_STEP:
            producer = len(plan.steps)
            new_step = instantiate_step(repair.operator, producer, ctx.vids)
            effect = new_step.effects[repair.effect_index]
            steps = plan.steps + (new_step,)
            orderings = plan.orderings.with_step(producer)
            added = open_conditions(new_step, config.reverse_preconditions, ctx.stamps)
        else:
            # effect is None only for a closed-world negative condition
            producer, new_step, effect = repair.step, None, repair.effect
            steps, orderings, added = plan.steps, plan.orderings, ()
        bindings = old if effect is None else unify(flaw.literal, effect, old)
        if bindings is None:
            raise AssertionError(f"enumerated {kind} repair failed to unify")
        link = CausalLink(producer, flaw.literal, flaw.step)
        links = plan.links + (link,)
        orderings = orderings.with_ordering(producer, flaw.step)
        child = PartialPlan(steps, links, orderings, bindings, rest + added)
        threats = detect_new_threats(child, new_step, link, config.systematic)
        doomed = False
        if threats:
            new = [Flaw(k, sid, eff, lk, next(ctx.stamps)) for k, sid, eff, lk in threats]
            added += tuple(new)
            child = PartialPlan(steps, links, orderings, bindings, rest + added)
            doomed = any(f.kind == NONSEPARABLE and not orderable(orderings.succ, f) for f in new)
        rebound = []
        if bindings is not old:
            was, now = old._rep.get, bindings._rep.get
            for t in flaw.literal.args if new_step else flaw.literal.args + effect.args:
                r = now(t, t)
                if r != was(t, t):
                    rebound.append(r)
            if bindings._neq is not old._neq:
                rebound += [t for pair in bindings._neq - old._neq for t in pair]
        changed = (orderings is not plan.orderings, new_step is not None)
        delta = Delta(*changed, frozenset(rebound), doomed) if rebound or doomed else _UNBOUND[changed]
        children.append((child, delta))
    return children


def dmin_feasible(plan: PartialPlan) -> bool:
    """Can every nonseparable threat be repaired simultaneously?  Tries
    all promote/demote assignments by backtracking; False marks the plan
    as a dead end."""
    return _assignable([f for f in plan.agenda if f.kind == NONSEPARABLE], 0, plan.orderings)


def _assignable(threats: list[Flaw], i: int, orderings) -> bool:
    """Can threats[i:] each be promoted or demoted on top of `orderings`?
    Module-level, not a closure over itself, so a call leaves no
    reference cycle behind."""
    if i == len(threats):
        return True
    f = threats[i]
    for kind in (PROMOTE, DEMOTE):
        nxt = orderings.with_ordering(*threat_ordering(f, kind))
        if nxt is not None and _assignable(threats, i + 1, nxt):
            return True
    return False


def plan_search(
    domain: Domain,
    problem: Problem,
    strategy: Strategy,
    config: SearchConfig | None = None,
    observer=None,
) -> SearchOutcome:
    """Run the refinement loop to a solution, exhaustion, or a limit.

    Deterministic for a fixed (problem, strategy, config including
    seed): the only randomness is the strategy's R tie-breaker, driven
    by a generator seeded from config.seed.  The cyclic garbage
    collector is paused while the search runs (see the module
    docstring) and left as the caller had it on any return or raise.

    `observer`'s one hook, on_expand(node, flaw, children) if it has
    one, is called at each expansion with the refreshed node, its
    selected flaw and its built children before their push.  In
    cached-cost mode the node carries its flaws' costs; the children
    are neither refreshed nor costed yet.  The root is the first node
    expanded, so the hook sees every node generated unless the root
    solves or is pruned.  The hook makes every child be built at push.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _search(domain, problem, strategy, config or SearchConfig(), observer)
    finally:
        if enabled:
            gc.enable()


def _search(domain: Domain, problem: Problem, strategy: Strategy, config: SearchConfig, observer) -> SearchOutcome:
    t0 = time.monotonic()
    stats = SearchStats(seed=config.seed)
    rng = random.Random(config.seed)
    if not strategy.reads_costs:
        config = replace(config, cost_mode="exact")  # no cached cost would be read
    cost_new = config.cost_mode == "cached"  # each node's new flaws, at its expansion

    ctx = SearchContext()
    root = make_skeletal_plan(domain, problem, config.reverse_preconditions, ctx.stamps)
    if strategy.cached_costs and not cost_new:  # else the root is costed at its expansion
        root = replace(root, agenda=_with_cached_costs(RepairTable(root, domain), root.agenda))
        stats.flaws_costed = len(root.agenda)
    stats.nodes_generated = 1
    # the root has no parent, and every flaw on its agenda was found
    # against its own stores, so its Delta re-tests nothing
    frontier: list[tuple] = [(rank(root, config.rank), 0, root, None, None, _UNBOUND[False, False])]
    stats.max_frontier = 1
    on_expand = getattr(observer, "on_expand", None)
    prune = config.dead_end_pruning
    w_steps, w_open = config.rank.w_steps, config.rank.w_open
    build_at_pop = config.rank.w_threats == 0 and on_expand is None

    def finish(status: str, solution: PartialPlan | None) -> SearchOutcome:
        stats.wall_seconds = time.monotonic() - t0
        return SearchOutcome(status, solution, stats)

    while frontier:
        _, _, node, lists, flaw, delta = heapq.heappop(frontier)
        if flaw is not None:  # `node` is the parent and `delta` the repair
            ((node, delta),) = refinements(node, flaw, domain, config, ctx, (delta,))
            stats.children_built += 1
            stats.children_doomed += delta.doomed
        if delta.doomed and prune:
            stats.nodes_pruned += 1  # a dead end: the probe would answer False for a new threat
            continue
        node = refresh_agenda(node, delta)
        if not node.agenda:
            result = validate_solution(node, domain, problem)
            if result:
                stats.grounded_variables = result.grounded_variables
                return finish(SOLVED, node)
            if ground_assignment(node, tuple(problem.objects) + domain.constants) is not None:
                raise RuntimeError(f"flaw-free plan failed validation: {result.message}")
            stats.nodes_pruned += 1  # a dead end: its separations leave no grounding
            continue

        # each flaw's list made at most once per node; the probe reads
        # the newest flaws first, where the refinement made its dead ends
        table = RepairTable(node, domain, lists, delta)
        if prune and any(
            not (table.repairs(f) if f.inserted_at in table.inherited else has_any_repair(node, f, domain))
            for f in reversed(node.agenda)
        ):
            stats.nodes_pruned += 1
            continue
        if config.dmin_check:
            nonsep = [f for f in node.agenda if f.kind == NONSEPARABLE]
            if nonsep and all(len(table.repairs(f)) >= 2 for f in nonsep):
                if not dmin_feasible(node):
                    stats.nodes_pruned += 1
                    continue
        if cost_new:
            # `table` keeps the uncosted node: the stores are the same
            new = [f for f in node.agenda if f.cached_cost is None]
            if new:
                costed = iter(_with_cached_costs(table, tuple(new)))
                agenda = tuple([next(costed) if f.cached_cost is None else f for f in node.agenda])
                node = PartialPlan(node.steps, node.links, node.orderings, node.bindings, agenda)
                stats.flaws_costed += len(new)

        flaw = select_flaw(strategy, node, domain, rng, config.cost_mode, table)
        stats.nodes_expanded += 1
        lists = table.open_lists(flaw)
        repairs = table.repairs(flaw)
        if build_at_pop:
            # the child's rank from the parent's counts and the repair
            base = w_steps * node.n_steps + w_open * (node.n_open - (flaw.kind == OPEN))
            for repair in repairs:
                r = base
                if repair.kind == NEW_STEP:
                    r += w_steps + w_open * len(repair.operator.template.preconds)
                stats.nodes_generated += 1
                heapq.heappush(frontier, (r, -stats.nodes_generated, node, lists, flaw, repair))
        else:
            children = refinements(node, flaw, domain, config, ctx, repairs)
            stats.children_built += len(children)
            if on_expand is not None:
                on_expand(node, flaw, [child for child, _ in children])
            for child, delta in children:
                stats.children_doomed += delta.doomed
                stats.nodes_generated += 1
                heapq.heappush(frontier, (rank(child, config.rank), -stats.nodes_generated, child, lists, None, delta))
        if len(frontier) > stats.max_frontier:
            stats.max_frontier = len(frontier)

        if (
            config.node_limit is not None
            and stats.nodes_generated >= config.node_limit
            and frontier
        ):
            return finish(NODE_LIMIT, None)
        if config.time_limit is not None and time.monotonic() - t0 >= config.time_limit:
            return finish(TIME_LIMIT, None)

    return finish(EXHAUSTED, None)
