"""Flaw detection, threat classification, repair enumeration, and costs.

The repair cost of an open condition is I + S + N: establishers in the
initial state, in effects of existing steps not ordered after the open's
own step, and in effects of library operators.  Threats cost at most two
(promotion, demotion) plus, for separable threats, one separation per
argument pair not already forced equal.  Threat liveness is re-validated
lazily (at selection and at cost computation), not eagerly on every
constraint addition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .domains import Domain, Operator, SchemaLiteral
from .plan import (
    GOAL_ID,
    NONSEPARABLE,
    OPEN,
    SEPARABLE,
    START_ID,
    CausalLink,
    Flaw,
    PartialPlan,
    Step,
)
from .terms import (
    BindingStore,
    Literal,
    Term,
    _pairs_unifiable,
    args_unifiable,
    const,
)

# repair kinds
FROM_START = "init"
REUSE = "reuse"
NEW_STEP = "new-step"
PROMOTE = "promote"
DEMOTE = "demote"
SEPARATE = "separate"

ESTABLISH_KINDS = (FROM_START, REUSE, NEW_STEP)


@dataclass(frozen=True, slots=True)
class Repair:
    """One way to fix one flaw.  Only the fields for its kind are set."""

    kind: str
    step: int = -1                       # reuse: producing step id
    effect: Literal | None = None        # init / reuse: the matched effect
    operator: Operator | None = None     # new-step
    effect_index: int = -1               # new-step: which distinct operator effect
    pair: tuple[Term, Term] | None = None  # separate: terms to force apart

    def describe(self) -> str:
        if self.kind == FROM_START:
            return f"init<-{self.effect}" if self.effect else "init<-closed-world"
        if self.kind == REUSE:
            return f"reuse step {self.step} {self.effect}"
        if self.kind == NEW_STEP:
            return f"new {self.operator.name}[{self.effect_index}]"
        if self.kind == SEPARATE:
            return f"separate {self.pair[0]}!={self.pair[1]}"
        return self.kind


def _ground_atom(cond: Literal, store: BindingStore) -> tuple[str, tuple[str, ...]] | None:
    """(pred, constant names) if every argument is bound to a constant."""
    names = []
    for t in cond.args:
        c = store.constant_of(t)
        if c is None:
            return None
        names.append(c.name)
    return (cond.pred, tuple(names))


@lru_cache(maxsize=64)
def _init_atoms(start_effects: tuple[Literal, ...]) -> frozenset[tuple[str, tuple[str, ...]]]:
    return frozenset((l.pred, tuple(t.name for t in l.args)) for l in start_effects)


@lru_cache(maxsize=64)
def _init_by_pred(start_effects: tuple[Literal, ...]) -> dict[str, tuple[Literal, ...]]:
    index: dict[str, list[Literal]] = {}
    seen: set[Literal] = set()
    for l in start_effects:
        if l in seen:
            continue
        seen.add(l)
        index.setdefault(l.pred, []).append(l)
    return {k: tuple(v) for k, v in index.items()}


@lru_cache(maxsize=64)
def _library_effects(
    operators: tuple[Operator, ...]
) -> dict[tuple[str, bool], tuple[tuple[Operator, int, SchemaLiteral], ...]]:
    """(pred, polarity) -> candidate (operator, effect index, schema).
    The index counts distinct effects, as instantiate_step keeps them."""
    index: dict[tuple[str, bool], list[tuple[Operator, int, SchemaLiteral]]] = {}
    for op in operators:
        for i, eff in enumerate(dict.fromkeys(op.effects)):
            index.setdefault((eff.pred, eff.positive), []).append((op, i, eff))
    return {k: tuple(v) for k, v in index.items()}


def schema_effect_unifies(cond: Literal, eff: SchemaLiteral, store: BindingStore) -> bool:
    """Would a fresh instance of `eff` unify with cond under store?

    Works without allocating variable ids or stores: repeated schema
    parameters force the corresponding condition arguments together,
    schema constants are paired against condition arguments directly.
    """
    if cond.pred != eff.pred or cond.positive != eff.positive or len(cond.args) != len(eff.args):
        return False
    bound: dict[str, Term] = {}
    pairs: list[tuple[Term, Term]] = []
    for carg, sarg in zip(cond.args, eff.args):
        if not sarg.startswith("?"):
            pairs.append((carg, const(sarg)))
        elif sarg in bound:
            pairs.append((carg, bound[sarg]))
        else:
            bound[sarg] = carg  # first occurrence binds freely
    if not pairs:
        return True
    return _pairs_unifiable(pairs, store)


# ---------------------------------------------------------------------------
# threat detection


def _threat_kind(effect: Literal, condition: Literal, store: BindingStore, systematic: bool) -> str | None:
    """NONSEPARABLE / SEPARABLE when `effect` endangers `condition`, else None."""
    if effect.pred != condition.pred or len(effect.args) != len(condition.args):
        return None
    if effect.positive == condition.positive and not systematic:
        return None
    if all(store.forced_equal(x, y) for x, y in zip(effect.args, condition.args)):
        return NONSEPARABLE
    if _pairs_unifiable(zip(effect.args, condition.args), store):
        return SEPARABLE
    return None


def _step_threatens_link(
    plan: PartialPlan, step: Step, link: CausalLink, systematic: bool
) -> list[tuple[str, int, Literal, CausalLink]]:
    if step.id == link.producer or step.id == link.consumer:
        return []
    if plan.precedes(step.id, link.producer) or plan.precedes(link.consumer, step.id):
        return []
    out = []
    for eff in step.effects:  # effects are distinct by construction
        kind = _threat_kind(eff, link.condition, plan.bindings, systematic)
        if kind is not None:
            out.append((kind, step.id, eff, link))
    return out


def detect_new_threats(
    plan: PartialPlan,
    new_step: Step | None,
    new_link: CausalLink | None,
    systematic: bool = False,
) -> list[tuple[str, int, Literal, CausalLink]]:
    """All threats created by a refinement delta, against the *child*
    plan's orderings and bindings.

    Order is deterministic: the new step's effects against existing
    links first (link creation order), then existing steps against the
    new link (step id order).
    """
    found: list[tuple[str, int, Literal, CausalLink]] = []
    if new_step is not None:
        for link in plan.links:
            found.extend(_step_threatens_link(plan, new_step, link, systematic))
    if new_link is not None:
        for step in plan.steps:
            if new_step is not None and step.id == new_step.id:
                continue  # covered by the pass above
            found.extend(_step_threatens_link(plan, step, new_link, systematic))
    return found


# ---------------------------------------------------------------------------
# refresh


def refresh_flaw(plan: PartialPlan, flaw: Flaw) -> Flaw | None:
    """None when the flaw has vanished; a reclassified copy when a
    separable threat's unification became forced; otherwise the flaw
    itself.  Opens are live until linked."""
    if flaw.kind == OPEN:
        return flaw
    link = flaw.link
    if plan.precedes(flaw.step, link.producer) or plan.precedes(link.consumer, flaw.step):
        return None
    # systematic=True only widens the test to same-sign pairs, and a
    # same-sign flaw can only exist if that mode created it.
    kind = _threat_kind(flaw.literal, link.condition, plan.bindings, systematic=True)
    if kind is None:
        return None
    if kind == flaw.kind:
        return flaw
    return replace(flaw, kind=kind)


def refresh_agenda(plan: PartialPlan) -> PartialPlan:
    """Plan with vanished flaws dropped and threats reclassified.
    Returns the same object when nothing changed."""
    refreshed: list[Flaw] = []
    changed = False
    vanished_threats = 0
    for f in plan.agenda:
        r = refresh_flaw(plan, f)
        if r is None:
            changed = True
            vanished_threats += 1
            continue
        if r is not f:
            changed = True
        refreshed.append(r)
    if not changed:
        return plan
    return PartialPlan(
        plan.steps,
        plan.links,
        plan.orderings,
        plan.bindings,
        tuple(refreshed),
        plan.n_steps,
        plan.n_open,
        plan.n_threats - vanished_threats,
    )


# ---------------------------------------------------------------------------
# repair enumeration


def enumerate_open_repairs(plan: PartialPlan, flaw: Flaw, domain: Domain) -> list[Repair]:
    """Every consistent establishment for an open condition, tagged by
    category so that len(result) is the flaw's repair cost and the
    categories can feed new-step-preference tie-breaking."""
    cond = flaw.literal
    store = plan.bindings
    out: list[Repair] = []

    start = plan.steps[START_ID]
    if cond.positive:
        for eff in _init_by_pred(start.effects).get(cond.pred, ()):
            if args_unifiable(cond, eff, store):
                out.append(Repair(FROM_START, effect=eff))
    else:
        # Closed world: a ground negative condition holds initially iff
        # its atom is absent from the initial state.
        atom = _ground_atom(cond, store)
        if atom is not None and atom not in _init_atoms(start.effects):
            out.append(Repair(FROM_START))

    for st in plan.steps:
        if st.id in (START_ID, GOAL_ID) or st.id == flaw.step:
            continue
        if plan.precedes(flaw.step, st.id):
            continue
        seen: set[Literal] = set()
        for eff in st.effects:
            if eff.pred != cond.pred or eff.positive != cond.positive or eff in seen:
                continue
            seen.add(eff)
            if args_unifiable(cond, eff, store):
                out.append(Repair(REUSE, step=st.id, effect=eff))

    for op, i, eff in _library_effects(domain.operators).get((cond.pred, cond.positive), ()):
        if schema_effect_unifies(cond, eff, store):
            out.append(Repair(NEW_STEP, operator=op, effect_index=i))
    return out


def enumerate_threat_repairs(plan: PartialPlan, flaw: Flaw) -> list[Repair]:
    """Promotion and demotion when consistent; for separable threats
    also one separation per argument pair not already forced equal
    (duplicate pairs collapse to one repair)."""
    link = flaw.link
    out: list[Repair] = []
    if not plan.precedes(flaw.step, link.consumer):
        out.append(Repair(PROMOTE))
    if not plan.precedes(link.producer, flaw.step):
        out.append(Repair(DEMOTE))
    if flaw.kind == SEPARABLE:
        store = plan.bindings
        seen_pairs: set[frozenset[Term]] = set()
        for x, y in zip(flaw.literal.args, link.condition.args):
            rx, ry = store.find(x), store.find(y)
            if rx == ry:
                continue
            key = frozenset((rx, ry))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            out.append(Repair(SEPARATE, pair=(x, y)))
    return out


def enumerate_repairs(plan: PartialPlan, flaw: Flaw, domain: Domain) -> list[Repair]:
    if flaw.kind == OPEN:
        return enumerate_open_repairs(plan, flaw, domain)
    return enumerate_threat_repairs(plan, flaw)


# ---------------------------------------------------------------------------
# costs and dead-end probes


def repair_cost(plan: PartialPlan, flaw: Flaw, domain: Domain, mode: str = "exact") -> int:
    """Exact mode counts repairs after refreshing the flaw; cached mode
    returns the insertion-time cost unchanged, whatever has happened to
    the plan since."""
    if mode == "cached" and flaw.cached_cost is not None:
        return flaw.cached_cost
    live = refresh_flaw(plan, flaw)
    if live is None:
        raise ValueError("cannot cost a vanished flaw")
    return len(enumerate_repairs(plan, live, domain))


def has_any_repair(plan: PartialPlan, flaw: Flaw, domain: Domain) -> bool:
    """Zero-cost probe with early exit; flaw is assumed refreshed."""
    if flaw.kind != OPEN:
        link = flaw.link
        if not plan.precedes(flaw.step, link.consumer):
            return True
        if not plan.precedes(link.producer, flaw.step):
            return True
        if flaw.kind == SEPARABLE:
            store = plan.bindings
            return any(
                store.find(x) != store.find(y)
                for x, y in zip(flaw.literal.args, link.condition.args)
            )
        return False

    cond = flaw.literal
    store = plan.bindings
    start = plan.steps[START_ID]
    if cond.positive:
        for eff in _init_by_pred(start.effects).get(cond.pred, ()):
            if args_unifiable(cond, eff, store):
                return True
    else:
        atom = _ground_atom(cond, store)
        if atom is not None and atom not in _init_atoms(start.effects):
            return True
    for op, _, eff in _library_effects(domain.operators).get((cond.pred, cond.positive), ()):
        if schema_effect_unifies(cond, eff, store):
            return True
    for st in plan.steps:
        if st.id in (START_ID, GOAL_ID) or st.id == flaw.step:
            continue
        if plan.precedes(flaw.step, st.id):
            continue
        for eff in st.effects:
            if (
                eff.pred == cond.pred
                and eff.positive == cond.positive
                and args_unifiable(cond, eff, store)
            ):
                return True
    return False
