"""Steps, causal links, ordering constraints, and the plan node.

A PartialPlan is a value: refinement builds new nodes and never mutates
the parent, so nodes can sit in a shared frontier or cross worker
boundaries freely.  The ordering store keeps a full reachability bitmask
per step because precedes() dominates repair-cost computation and must
stay O(1).  A node records no number of its own: the search numbers only
fresh variables and flaw insertion stamps, each with an itertools.count.

The records built for every child (Step, CausalLink, Flaw, PartialPlan)
are slotted dataclasses, built positionally.  CPython 3.11 specializes
reading a slot but not reading a named tuple's field: on a 2-core Xeon
under Python 3.11.7 a field read takes about 6 ns against 19 ns, and
building a six-field record 240 ns against 380 ns.  Like terms.Literal,
they are values by contract rather than by type: nothing assigns to a
field once a record is built (tests/test_package.py checks the source
for such a store), so a record can be shared between nodes.  They
compare and hash by their fields and pickle; dataclasses.replace copies
one with some fields changed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count

from .domains import Domain, Operator, Problem
from .terms import EMPTY_STORE, BindingStore, Literal, Term, const

START_ID = 0
GOAL_ID = 1

START_NAME = "start"
GOAL_NAME = "goal"

# flaw kinds, matching the strategy notation
OPEN = "o"
NONSEPARABLE = "n"
SEPARABLE = "s"


@dataclass(slots=True, unsafe_hash=True)
class Step:
    """An operator instance; `id` is its index in the plan's steps."""

    id: int
    name: str
    params: tuple[Term, ...]
    preconds: tuple[Literal, ...]
    effects: tuple[Literal, ...]

    def __str__(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({' '.join(map(str, self.params))})"


@dataclass(slots=True, unsafe_hash=True)
class CausalLink:
    producer: int
    condition: Literal
    consumer: int

    def __str__(self) -> str:
        return f"({self.producer} {self.condition} {self.consumer})"


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class PartialPlan:
    """One search node.  n_steps and n_open, the S and OC ranking inputs
    (steps excluding the two dummies, agenda opens), are computed from
    the parts, not maintained; UC, the agenda's threats, is the rest of
    the agenda."""

    steps: tuple[Step, ...]
    links: tuple[CausalLink, ...]
    orderings: OrderingStore
    bindings: BindingStore
    agenda: tuple[Flaw, ...]

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 2  # step ids are dense, start and goal first

    @property
    def n_open(self) -> int:
        return [f.kind for f in self.agenda].count(OPEN)  # a C-level count over one list


def instantiate_step(op: Operator, sid: int, vids: Iterator[int]) -> Step:
    """Fresh copy of an operator: every parameter gets a brand-new
    variable so ids never collide across steps in one search.  Literally
    duplicate effects collapse (establishers and threats count per
    distinct effect literal anyway); the operator's template lists each
    literal as argument positions, so no argument is looked up by name."""
    t = op.template
    values = [*map(Term, op.params, vids), *t.constants]  # map takes one id per parameter
    get = values.__getitem__
    return Step(
        sid,
        op.name,
        tuple(values[: len(op.params)]),
        tuple([Literal(pos, pred, tuple(map(get, idx))) for pos, pred, idx in t.preconds]),
        tuple([Literal(pos, pred, tuple(map(get, idx))) for pos, pred, idx in t.effects]),
    )


def open_conditions(step: Step, reverse: bool, stamps: Iterator[int]) -> tuple[Flaw, ...]:
    """One open condition per precondition of `step`, stamped in declared
    order, or in reverse order when `reverse` is set: the one place the
    order of a step's preconditions on the agenda is decided."""
    preconds = step.preconds[::-1] if reverse else step.preconds
    return tuple([Flaw(OPEN, step.id, pre, None, next(stamps)) for pre in preconds])


def make_skeletal_plan(
    domain: Domain,
    problem: Problem,
    reverse: bool = False,
    stamps: Iterator[int] | None = None,
) -> PartialPlan:
    """The two-dummy-step seed plan: start houses the initial state as
    effects, goal houses the goal literals as preconditions, and the
    agenda lists each goal literal as an open condition, ordered by
    open_conditions."""
    for g in problem.goal:
        if g.pred not in domain.predicates:
            raise ValueError(f"goal mentions undeclared predicate '{g.pred}'")
        if len(g.args) != domain.predicates[g.pred]:
            raise ValueError(
                f"goal literal {g} has wrong arity for '{g.pred}' "
                f"(expected {domain.predicates[g.pred]})"
            )
    start = Step(START_ID, START_NAME, (), (), tuple(dict.fromkeys(problem.init)))
    goal = Step(GOAL_ID, GOAL_NAME, (), tuple(problem.goal), ())
    return PartialPlan(
        steps=(start, goal),
        links=(),
        orderings=OrderingStore.initial(),
        bindings=EMPTY_STORE,
        agenda=open_conditions(goal, reverse, stamps or count()),
    )


def linearize(plan: PartialPlan) -> list[int]:
    """Deterministic topological order: each time, the lowest-id step
    that no unplaced step precedes, read off the ordering closure."""
    succ = plan.orderings.succ
    left = list(range(len(plan.steps)))
    out: list[int] = []
    while left:
        b = next((b for b in left if not any(succ[a] >> b & 1 for a in left)), None)
        if b is None:
            raise RuntimeError("ordering store contains a cycle")
        left.remove(b)
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# solution validation


@dataclass(frozen=True)
class ValidationResult:
    """`assignment` maps each free variable class to the constant that
    grounds it; `order` is the linearization the check executed."""

    ok: bool
    message: str | None
    assignment: dict[Term, Term]
    order: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok

    @property
    def grounded_variables(self) -> int:
        return len(self.assignment)


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


def ground_assignment(plan: PartialPlan, constant_names: tuple[str, ...]) -> dict[Term, Term] | None:
    """Map every unbound class representative to a constant consistent
    with the noncodesignation constraints; None when no such map exists.
    Depth-first over the classes in key order and the names in sorted
    order, so the answer is greedy's lowest-named one whenever greedy
    succeeds.  A class with no constant left backs up to the class before
    it (chronological backtracking)."""
    names = sorted(set(constant_names))
    reps = {plan.bindings.find(t) for t in _plan_variables(plan)}
    classes = sorted((r for r in reps if r.is_variable), key=lambda t: t.key)
    index = {r: i for i, r in enumerate(classes)}
    apart = [plan.bindings.neq_reps_of(r) for r in classes]
    banned = [{o.name for o in others if not o.is_variable} for others in apart]
    parents = [{index[o] for o in others if index.get(o, i) < i} for i, others in enumerate(apart)]
    picked = [-1] * len(classes)  # index into names; -1 before the first try
    i = 0
    while i < len(classes):
        taken = banned[i] | {names[picked[j]] for j in parents[i]}
        picked[i] = next((k for k in range(picked[i] + 1, len(names)) if names[k] not in taken), -1)
        i += 1 if picked[i] >= 0 else -1
        if i < 0:
            return None
    return {r: const(names[k]) for r, k in zip(classes, picked)}


def _ground_names(plan: PartialPlan, assignment: dict[Term, Term], args: tuple[Term, ...]) -> tuple[str, ...]:
    """The constant each argument is bound to, or grounded to by `assignment`."""
    names = []
    for t in args:
        r = plan.bindings.find(t)
        names.append(r.name if not r.is_variable else assignment[r].name)
    return tuple(names)


def validate_solution(plan: PartialPlan, domain: Domain, problem: Problem) -> ValidationResult:
    """Simulate the deterministic linearization from the initial state
    (closed world) after grounding any free variables; check every
    step's preconditions at execution time and the goal at the end."""
    for lk in plan.links:
        if not plan.orderings.precedes(lk.producer, lk.consumer):
            return ValidationResult(False, f"link {lk} has producer not before consumer", {}, ())
    if plan.agenda:
        return ValidationResult(False, f"plan still has {len(plan.agenda)} flaws", {}, ())

    assignment = ground_assignment(plan, tuple(problem.objects) + domain.constants)
    if assignment is None:
        return ValidationResult(False, "free variables cannot be grounded consistently", {}, ())

    def ground(l: Literal) -> tuple[str, tuple[str, ...]]:
        return (l.pred, _ground_names(plan, assignment, l.args))

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
                    assignment,
                    tuple(order),
                )
        for eff in st.effects:
            if not eff.positive:
                state.discard(ground(eff))
        for eff in st.effects:
            if eff.positive:
                state.add(ground(eff))
    return ValidationResult(True, None, assignment, tuple(order))


def format_solution(plan: PartialPlan, domain: Domain, problem: Problem) -> list[str]:
    """Linearized non-dummy steps with display-grounded arguments."""
    result = validate_solution(plan, domain, problem)
    if not result:
        raise ValueError(f"not a valid solution: {result.message}")
    lines = []
    for sid in result.order:
        if sid in (START_ID, GOAL_ID):
            continue
        st = plan.steps[sid]
        args = _ground_names(plan, result.assignment, st.params)
        lines.append(f"{st.name}({' '.join(args)})" if args else st.name)
    return lines

