"""Steps, causal links, ordering constraints, and the immutable plan node.

A PartialPlan is a value: refinement builds new nodes and never mutates
the parent, so nodes can sit in a shared frontier or cross worker
boundaries freely.  The ordering store keeps a full reachability bitmask
per step because precedes() dominates repair-cost computation and must
stay O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .domains import Domain, Operator, Problem, SchemaLiteral
from .terms import EMPTY_STORE, BindingStore, Literal, Term, const, var

START_ID = 0
GOAL_ID = 1

START_NAME = "start"
GOAL_NAME = "goal"

# flaw kinds, matching the strategy notation
OPEN = "o"
NONSEPARABLE = "n"
SEPARABLE = "s"


class IdGen:
    """Monotone counter for variable ids, flaw stamps, and node numbers."""

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def take(self) -> int:
        v = self.value
        self.value += 1
        return v


@dataclass(frozen=True, slots=True)
class Step:
    id: int
    name: str
    params: tuple[Term, ...]
    preconds: tuple[Literal, ...]
    effects: tuple[Literal, ...]
    created_at: int  # node-generation counter of the node that added it

    def __str__(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({' '.join(map(str, self.params))})"


@dataclass(frozen=True, slots=True)
class CausalLink:
    producer: int
    condition: Literal
    consumer: int
    created_at: int

    def __str__(self) -> str:
        return f"({self.producer} {self.condition} {self.consumer})"


@dataclass(frozen=True, slots=True)
class Flaw:
    """An open condition (kind 'o') or a threat (kind 'n'/'s').

    Opens carry the consuming step in `step` and the needed condition in
    `literal`.  Threats carry the threatening step, its offending effect,
    and the attacked link.  `inserted_at` is the global insertion stamp
    that LIFO/FIFO tie-breaking works on; `cached_cost` is the
    insertion-time repair cost, filled only in cached-cost mode.
    """

    kind: str
    step: int
    literal: Literal
    link: CausalLink | None = None
    inserted_at: int = 0
    cached_cost: int | None = None

    @property
    def is_threat(self) -> bool:
        return self.kind != OPEN

    def describe(self) -> str:
        if self.kind == OPEN:
            return f"o {self.literal} @{self.step}"
        return f"{self.kind} {self.literal} step {self.step} vs link{self.link}"


@dataclass(frozen=True, slots=True)
class OrderingStore:
    """Strict partial order over step ids with materialized reachability.

    succ[i] is the bitmask of every step strictly after step i.
    """

    succ: tuple[int, ...]

    @staticmethod
    def initial() -> OrderingStore:
        return OrderingStore((1 << GOAL_ID, 0))

    def precedes(self, a: int, b: int) -> bool:
        return bool((self.succ[a] >> b) & 1)

    def with_step(self, sid: int) -> OrderingStore:
        """Append a step constrained only by start ≺ sid ≺ goal."""
        if sid != len(self.succ):
            raise ValueError("step ids must be allocated densely")
        succ = list(self.succ)
        succ.append(1 << GOAL_ID)
        succ[START_ID] |= 1 << sid
        return OrderingStore(tuple(succ))

    def with_ordering(self, a: int, b: int) -> OrderingStore | None:
        """Add a ≺ b and update reachability; None if this closes a cycle."""
        if a == b or self.precedes(b, a):
            return None
        if self.precedes(a, b):
            return self
        gained = self.succ[b] | (1 << b)
        succ = list(self.succ)
        for x in range(len(succ)):
            if x == a or (succ[x] >> a) & 1:
                succ[x] |= gained
        return OrderingStore(tuple(succ))

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for a in range(len(self.succ)):
            m = self.succ[a]
            while m:
                b = (m & -m).bit_length() - 1
                out.append((a, b))
                m &= m - 1
        return out


@dataclass(frozen=True)
class PartialPlan:
    """One search node.  n_steps / n_open / n_threats are the ranking
    inputs (steps excluding the two dummies, agenda opens, agenda
    threats), maintained incrementally and always equal to a recount."""

    steps: tuple[Step, ...]
    links: tuple[CausalLink, ...]
    orderings: OrderingStore
    bindings: BindingStore
    agenda: tuple[Flaw, ...]
    n_steps: int
    n_open: int
    n_threats: int

    def step(self, sid: int) -> Step:
        return self.steps[sid]

    def precedes(self, a: int, b: int) -> bool:
        return self.orderings.precedes(a, b)


def recount(plan: PartialPlan) -> tuple[int, int, int]:
    """From-scratch (S, OC, UC) for the counter-consistency checks."""
    s = sum(1 for st in plan.steps if st.id not in (START_ID, GOAL_ID))
    oc = sum(1 for f in plan.agenda if f.kind == OPEN)
    uc = len(plan.agenda) - oc
    return s, oc, uc


def instantiate_literal(schema: SchemaLiteral, mapping: dict[str, Term]) -> Literal:
    args = tuple(mapping[a] if a.startswith("?") else const(a) for a in schema.args)
    return Literal(schema.positive, schema.pred, args)


def instantiate_step(op: Operator, sid: int, created_at: int, vids: IdGen) -> Step:
    """Fresh copy of an operator: every parameter gets a brand-new
    variable so ids never collide across steps in one search.  Literally
    duplicate effects collapse (establishers and threats count per
    distinct effect literal anyway)."""
    mapping = {p: var(p, vids.take()) for p in op.params}
    return Step(
        id=sid,
        name=op.name,
        params=tuple(mapping[p] for p in op.params),
        preconds=tuple(instantiate_literal(l, mapping) for l in op.preconds),
        effects=tuple(dict.fromkeys(instantiate_literal(l, mapping) for l in op.effects)),
        created_at=created_at,
    )


def make_skeletal_plan(
    domain: Domain,
    problem: Problem,
    reverse: bool = False,
    stamps: IdGen | None = None,
) -> PartialPlan:
    """The two-dummy-step seed plan: start houses the initial state as
    effects, goal houses the goal literals as preconditions, and the
    agenda lists each goal literal as an open condition (declared order,
    or reversed when `reverse` is set)."""
    for g in problem.goal:
        if g.pred not in domain.predicates:
            raise ValueError(f"goal mentions undeclared predicate '{g.pred}'")
        if len(g.args) != domain.predicates[g.pred]:
            raise ValueError(
                f"goal literal {g} has wrong arity for '{g.pred}' "
                f"(expected {domain.predicates[g.pred]})"
            )
    start = Step(START_ID, START_NAME, (), (), tuple(dict.fromkeys(problem.init)), 0)
    goal = Step(GOAL_ID, GOAL_NAME, (), tuple(problem.goal), (), 0)
    stamps = stamps or IdGen()
    goals = list(problem.goal)
    if reverse:
        goals.reverse()
    agenda = tuple(Flaw(OPEN, GOAL_ID, g, None, stamps.take()) for g in goals)
    return PartialPlan(
        steps=(start, goal),
        links=(),
        orderings=OrderingStore.initial(),
        bindings=EMPTY_STORE,
        agenda=agenda,
        n_steps=0,
        n_open=len(agenda),
        n_threats=0,
    )


def add_ordering(plan: PartialPlan, before: int, after: int) -> PartialPlan | None:
    """New plan with before ≺ after, or None on a cycle."""
    if before >= len(plan.steps) or after >= len(plan.steps):
        raise IndexError("unknown step id")
    orderings = plan.orderings.with_ordering(before, after)
    if orderings is None:
        return None
    if orderings is plan.orderings:
        return plan
    return PartialPlan(
        plan.steps, plan.links, orderings, plan.bindings, plan.agenda,
        plan.n_steps, plan.n_open, plan.n_threats,
    )


def linearize(plan: PartialPlan) -> list[int]:
    """Deterministic topological order (ties broken by ascending id)."""
    n = len(plan.steps)
    indeg = [0] * n
    for a in range(n):
        m = plan.orderings.succ[a]
        while m:
            b = (m & -m).bit_length() - 1
            indeg[b] += 1
            m &= m - 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        a = heapq.heappop(ready)
        out.append(a)
        m = plan.orderings.succ[a]
        while m:
            b = (m & -m).bit_length() - 1
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
            m &= m - 1
    if len(out) != n:
        raise RuntimeError("ordering store contains a cycle")
    return out


# ---------------------------------------------------------------------------
# solution validation


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str | None
    grounded_variables: int
    order: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def _plan_variables(plan: PartialPlan) -> list[Term]:
    seen: dict[Term, None] = {}
    for st in plan.steps:
        for t in st.params:
            if t.is_variable:
                seen.setdefault(t, None)
        for l in st.preconds + st.effects:
            for t in l.args:
                if t.is_variable:
                    seen.setdefault(t, None)
    return sorted(seen, key=lambda t: t.key)


def ground_assignment(
    plan: PartialPlan, constant_names: tuple[str, ...]
) -> tuple[dict[Term, Term], int] | None:
    """Map every unbound class representative to the lowest-named
    constant consistent with the noncodesignation constraints.  Greedy
    per class in deterministic order; None when some class has no
    consistent constant left."""
    names = sorted(set(constant_names))
    assignment: dict[Term, Term] = {}
    reps: dict[Term, None] = {}
    for t in _plan_variables(plan):
        r = plan.bindings.find(t)
        if r.is_variable:
            reps.setdefault(r, None)
    for r in sorted(reps, key=lambda t: t.key):
        banned = set()
        for other in plan.bindings.neq_reps_of(r):
            if not other.is_variable:
                banned.add(other.name)
            elif other in assignment:
                banned.add(assignment[other].name)
        for name in names:
            if name not in banned:
                assignment[r] = const(name)
                break
        else:
            return None
    return assignment, len(assignment)


def validate_solution(plan: PartialPlan, domain: Domain, problem: Problem) -> ValidationResult:
    """Simulate the deterministic linearization from the initial state
    (closed world) after grounding any free variables; check every
    step's preconditions at execution time and the goal at the end."""
    for lk in plan.links:
        if not plan.orderings.precedes(lk.producer, lk.consumer):
            return ValidationResult(False, f"link {lk} has producer not before consumer", 0, ())
    if plan.agenda:
        return ValidationResult(False, f"plan still has {len(plan.agenda)} flaws", 0, ())

    constants = tuple(problem.objects) + domain.constants
    grounded = ground_assignment(plan, constants)
    if grounded is None:
        return ValidationResult(False, "free variables cannot be grounded consistently", 0, ())
    assignment, n_grounded = grounded

    def ground(l: Literal) -> tuple[str, tuple[str, ...]]:
        names = []
        for t in l.args:
            r = plan.bindings.find(t)
            names.append(r.name if not r.is_variable else assignment[r].name)
        return (l.pred, tuple(names))

    order = linearize(plan)
    state = {(l.pred, tuple(t.name for t in l.args)) for l in problem.init}
    for sid in order:
        if sid == START_ID:
            continue
        st = plan.steps[sid]
        for pre in st.preconds:
            atom = ground(pre)
            holds = atom in state
            if holds != pre.positive:
                return ValidationResult(
                    False,
                    f"step {sid} ({st}): precondition {pre} unsatisfied",
                    n_grounded,
                    tuple(order),
                )
        for eff in st.effects:
            if not eff.positive:
                state.discard(ground(eff))
        for eff in st.effects:
            if eff.positive:
                state.add(ground(eff))
    return ValidationResult(True, None, n_grounded, tuple(order))


def format_solution(plan: PartialPlan, domain: Domain, problem: Problem) -> list[str]:
    """Linearized non-dummy steps with display-grounded arguments."""
    result = validate_solution(plan, domain, problem)
    if not result:
        raise ValueError(f"not a valid solution: {result.message}")
    assignment, _ = ground_assignment(plan, tuple(problem.objects) + domain.constants)
    lines = []
    for sid in result.order:
        if sid in (START_ID, GOAL_ID):
            continue
        st = plan.steps[sid]
        args = []
        for t in st.params:
            r = plan.bindings.find(t)
            args.append(r.name if not r.is_variable else assignment[r].name)
        lines.append(f"{st.name}({' '.join(args)})" if args else st.name)
    return lines


# ---------------------------------------------------------------------------
# debug serialization (deterministic; golden tests hash this)


def serialize(plan: PartialPlan) -> str:
    lines = ["steps:"]
    for st in plan.steps:
        lines.append(f"  {st.id} {st}")
    lines.append("links:")
    for lk in sorted(plan.links, key=lambda l: (l.producer, l.consumer, str(l.condition))):
        lines.append(f"  {lk.producer} -> {lk.condition} -> {lk.consumer}")
    lines.append("orderings:")
    lines.append("  " + " ".join(f"{a}<{b}" for a, b in plan.orderings.pairs()))
    lines.append("bindings:")
    lines.append("  " + plan.bindings.describe())
    lines.append("agenda:")
    for f in plan.agenda:
        lines.append(f"  {f.describe()}")
    return "\n".join(lines) + "\n"
