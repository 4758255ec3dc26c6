"""Best-first plan-space search: node selection, refinement, pruning, limits.

Node selection pops the minimum-rank plan (ties: most recently generated
first).  Flaw selection is delegated to the strategy; all repairs of the
selected flaw become children.  A node any of whose flaws has repair
cost zero is a dead end and is pruned before expansion (switchable).
Limits are checked after each expansion, so a run can overshoot its node
limit by one batch of children; %-overrun accounting clamps to the
nominal limit.
"""

from __future__ import annotations

import heapq
import random
import re
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .domains import Domain, Problem
from .flaws import (
    DEMOTE,
    ESTABLISH_KINDS,
    FROM_START,
    NEW_STEP,
    PROMOTE,
    Repair,
    detect_new_threats,
    enumerate_repairs,
    has_any_repair,
    refresh_agenda,
)
from .plan import (
    NONSEPARABLE,
    OPEN,
    START_ID,
    CausalLink,
    Flaw,
    IdGen,
    PartialPlan,
    instantiate_step,
    make_skeletal_plan,
    validate_solution,
)
from .strategies import Strategy, select_flaw
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
    if f.denominator == 1:
        return str(f.numerator)
    scaled = f * 1000
    if scaled.denominator == 1:  # exact with three decimals or fewer
        text = f"{f.numerator / f.denominator:.3f}".rstrip("0")
        return text if not text.endswith(".") else text[:-1]
    return f"{f.numerator}/{f.denominator}"


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
    return w.w_steps * plan.n_steps + w.w_open * plan.n_open + w.w_threats * plan.n_threats


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


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    plan: PartialPlan | None
    stats: SearchStats

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


class SearchContext:
    """Per-search mutable counters: fresh variable ids, flaw insertion
    stamps, and the node generation number."""

    def __init__(self):
        self.vids = IdGen()
        self.stamps = IdGen()
        self.generation = 0

    @staticmethod
    def resuming(plan: PartialPlan) -> SearchContext:
        """Context whose counters continue past everything in `plan`;
        lets refinements() be called on hand-built plans."""
        ctx = SearchContext()
        max_vid = -1
        for st in plan.steps:
            for t in st.params:
                max_vid = max(max_vid, t.vid)
        ctx.vids.value = max_vid + 1
        ctx.stamps.value = 1 + max((f.inserted_at for f in plan.agenda), default=-1)
        ctx.generation = 1 + max(st.created_at for st in plan.steps)
        return ctx


def _without(agenda: tuple[Flaw, ...], flaw: Flaw) -> tuple[Flaw, ...]:
    out = tuple(f for f in agenda if f is not flaw)
    if len(out) < len(agenda):
        return out
    res, dropped = [], False
    for f in agenda:
        if not dropped and f == flaw:
            dropped = True
            continue
        res.append(f)
    if not dropped:
        raise ValueError("selected flaw is not on the agenda")
    return tuple(res)


def _with_cached_costs(plan: PartialPlan, n_new: int, domain: Domain) -> PartialPlan:
    """Fill insertion-time repair costs on the newest n_new agenda flaws."""
    if n_new == 0:
        return plan
    head = plan.agenda[:-n_new]
    tail = tuple(
        replace(f, cached_cost=len(enumerate_repairs(plan, f, domain)))
        for f in plan.agenda[-n_new:]
    )
    return replace(plan, agenda=head + tail)


def _apply_repair(
    plan: PartialPlan,
    flaw: Flaw,
    repair: Repair,
    domain: Domain,
    config: SearchConfig,
    ctx: SearchContext,
    cached: bool,
) -> PartialPlan:
    """Build the child plan for one enumerated repair.  Enumeration
    pre-validates consistency, so application never fails."""
    rest = _without(plan.agenda, flaw)

    if repair.kind not in ESTABLISH_KINDS:  # threat repairs add no flaws
        orderings, bindings = plan.orderings, plan.bindings
        if repair.kind == PROMOTE:
            orderings = orderings.with_ordering(flaw.link.consumer, flaw.step)
        elif repair.kind == DEMOTE:
            orderings = orderings.with_ordering(flaw.step, flaw.link.producer)
        else:
            bindings = bindings.require_distinct(*repair.pair)
        return PartialPlan(
            plan.steps, plan.links, orderings, bindings, rest,
            plan.n_steps, plan.n_open, plan.n_threats - 1,
        )

    gen = ctx.generation
    if repair.kind == NEW_STEP:
        producer = len(plan.steps)
        new_step = instantiate_step(repair.operator, producer, gen, ctx.vids)
        effect = new_step.effects[repair.effect_index]
        steps = plan.steps + (new_step,)
        orderings = plan.orderings.with_step(producer)
        preconds = new_step.preconds[::-1] if config.reverse_preconditions else new_step.preconds
        opens = tuple(Flaw(OPEN, producer, pre, None, ctx.stamps.take()) for pre in preconds)
    else:
        # effect is None only for a closed-world negative condition
        producer = START_ID if repair.kind == FROM_START else repair.step
        new_step, effect = None, repair.effect
        steps, orderings, opens = plan.steps, plan.orderings, ()
    bindings = plan.bindings if effect is None else unify(flaw.literal, effect, plan.bindings)
    if bindings is None:
        raise AssertionError(f"enumerated {repair.kind} repair failed to unify")
    link = CausalLink(producer, flaw.literal, flaw.step, gen)
    child = PartialPlan(
        steps, plan.links + (link,), orderings.with_ordering(producer, flaw.step), bindings,
        rest + opens,
        plan.n_steps + (new_step is not None), plan.n_open - 1 + len(opens), plan.n_threats,
    )
    threats = detect_new_threats(child, new_step, link, config.systematic)
    if threats:
        flaws = tuple(
            Flaw(kind, sid, lit, lk, ctx.stamps.take()) for kind, sid, lit, lk in threats
        )
        child = replace(
            child, agenda=child.agenda + flaws, n_threats=child.n_threats + len(flaws)
        )
    if cached:
        child = _with_cached_costs(child, len(opens) + len(threats), domain)
    return child


def refinements(
    plan: PartialPlan,
    flaw: Flaw,
    domain: Domain,
    config: SearchConfig | None = None,
    ctx: SearchContext | None = None,
) -> list[PartialPlan]:
    """One child per enumerated repair of `flaw` (assumed refreshed)."""
    config = config or SearchConfig()
    ctx = ctx or SearchContext.resuming(plan)
    cached = config.cost_mode == "cached"
    children = []
    for repair in enumerate_repairs(plan, flaw, domain):
        ctx.generation += 1
        children.append(_apply_repair(plan, flaw, repair, domain, config, ctx, cached))
    return children


def dmin_feasible(plan: PartialPlan) -> bool:
    """Can every nonseparable threat be repaired simultaneously?  Tries
    all promote/demote assignments by backtracking; False marks the plan
    as a dead end."""
    threats = [f for f in plan.agenda if f.kind == NONSEPARABLE]

    def assign(i: int, orderings) -> bool:
        if i == len(threats):
            return True
        f = threats[i]
        for a, b in ((f.link.consumer, f.step), (f.step, f.link.producer)):
            nxt = orderings.with_ordering(a, b)
            if nxt is not None and assign(i + 1, nxt):
                return True
        return False

    return assign(0, plan.orderings)


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
    by a generator seeded from config.seed.
    """
    config = config or SearchConfig()
    t0 = time.monotonic()
    stats = SearchStats(seed=config.seed)
    rng = random.Random(config.seed)
    cached = config.cost_mode == "cached" or strategy.cached_costs
    cost_mode = "cached" if cached else "exact"

    ctx = SearchContext()
    root = make_skeletal_plan(domain, problem, config.reverse_preconditions, ctx.stamps)
    if cached:
        root = _with_cached_costs(root, len(root.agenda), domain)
    stats.nodes_generated = 1
    frontier: list[tuple] = [(rank(root, config.rank), 0, root)]
    stats.max_frontier = 1
    if observer is not None and hasattr(observer, "on_enqueue"):
        observer.on_enqueue(root)
    next_time_check = 64

    def finish(status: str, solution: PartialPlan | None) -> SearchOutcome:
        stats.wall_seconds = time.monotonic() - t0
        return SearchOutcome(status, solution, stats)

    def solved(node: PartialPlan) -> SearchOutcome:
        result = validate_solution(node, domain, problem)
        if not result:
            raise RuntimeError(f"flaw-free plan failed validation: {result.message}")
        stats.grounded_variables = result.grounded_variables
        return finish(SOLVED, node)

    pops = 0
    while frontier:
        _, _, node = heapq.heappop(frontier)
        pops += 1
        if not node.agenda:
            return solved(node)
        node = refresh_agenda(node)
        if not node.agenda:
            return solved(node)

        if config.dead_end_pruning and any(
            not has_any_repair(node, f, domain) for f in node.agenda
        ):
            stats.nodes_pruned += 1
            continue
        if config.dmin_check:
            nonsep = [f for f in node.agenda if f.kind == NONSEPARABLE]
            if nonsep and all(
                len(enumerate_repairs(node, f, domain)) >= 2 for f in nonsep
            ):
                if not dmin_feasible(node):
                    stats.nodes_pruned += 1
                    continue

        flaw = select_flaw(strategy, node, domain, rng, cost_mode)
        stats.nodes_expanded += 1
        children = refinements(node, flaw, domain, config, ctx)
        if observer is not None and hasattr(observer, "on_expand"):
            observer.on_expand(node, flaw, children)
        for child in children:
            stats.nodes_generated += 1
            heapq.heappush(frontier, (rank(child, config.rank), -stats.nodes_generated, child))
            if observer is not None and hasattr(observer, "on_enqueue"):
                observer.on_enqueue(child)
        if len(frontier) > stats.max_frontier:
            stats.max_frontier = len(frontier)

        if (
            config.node_limit is not None
            and stats.nodes_generated >= config.node_limit
            and frontier
        ):
            return finish(NODE_LIMIT, None)
        if config.time_limit is not None and (
            stats.nodes_generated >= next_time_check or (pops & 63) == 0
        ):
            next_time_check = stats.nodes_generated + 64
            if time.monotonic() - t0 >= config.time_limit:
                return finish(TIME_LIMIT, None)

    return finish(EXHAUSTED, None)
