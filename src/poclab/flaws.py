"""Flaw detection, threat classification, repair enumeration, and the dead-end probe.

The repair cost of an open condition is I + S + N: establishers in the
initial state, in effects of existing steps not ordered after the open's
own step, and in effects of library operators.  The initial state is
the start step's effects, scanned as every other step's are; a negative
condition none of them can codesignate with holds by the closed world.
Library establishers come from the domain's own index,
Domain.establishers, so this module keeps no state between calls.  Threats cost at most two
(promotion and demotion, each read off the ordering bits) plus, for
separable threats, one separation per pair of class representatives
not already forced equal.  A refinement's new threats are looked for
in one inline scan of (step, link) pairs: only an effect with the link
condition's predicate and the opposite sign (either sign under
systematic), of a step inside the link's span, reaches the union
kernel.  Threat liveness is re-validated lazily, when the search
refreshes a popped node's agenda, not eagerly on every constraint
addition, and only what the refinement changed is re-tested: every
threat is re-tested against the orderings only if the refinement
reordered, and each against the bindings only if the node's Delta
touches its terms (Delta.touches, read by rederive_open_repairs too).

The costs and the refinements share one scan per flaw kind: a cost is
the length of the enumeration, and each enumerated repair becomes a
child.  The dead-end probe answers whether that scan would find
anything, from the domain and the orderings where they settle it: an
open condition of a key in Domain.always_establishable has a new-step
repair under any bindings; a separable threat always has a
separation, and a nonseparable one has repairs if promotion or
demotion is consistent with the orderings (orderable).  Any other open
condition (in the bundled domains, one that no operator establishes)
is enumerated to its first hit in the enumeration's order, init, then
library, never trying the plan's other steps, which are library
instances.
An open condition is enumerated once per lineage and re-checked per
delta: a refinement only adds constraints, so a child derives the
condition's repairs from its parent's list (rederive_open_repairs).
The Delta is made by the child builder (search.refinements) as it
builds the child, from what it has just done.  The search keeps a
node's repair lists in one strategies.RepairTable.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _union,
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


@dataclass(slots=True, unsafe_hash=True)
class Repair:
    """One way to fix one flaw.  Only the fields for its kind are set.
    A value, like the plan records: nothing assigns to a field once it
    is built, so one Repair serves every list that holds it."""

    kind: str
    step: int = -1                       # init / reuse: producing step id
    effect: Literal | SchemaLiteral | None = None  # init / reuse: the matched effect; new-step: its schema
    operator: Operator | None = None     # new-step
    effect_index: int = -1               # new-step: which distinct operator effect
    pair: tuple[Term, Term] | None = None  # separate: terms to force apart


# Field-less repairs are shared: a Repair is a value, and the probe
# runs on every flaw of every popped node.
_PROMOTE = Repair(PROMOTE)
_DEMOTE = Repair(DEMOTE)
_CLOSED_WORLD = Repair(FROM_START, step=START_ID)


def _closed_world(cond: Literal, store: BindingStore, start: Step) -> bool:
    """Closed world: a negative condition holds initially iff no atom of
    the start step's effects can codesignate with its atom under store,
    ground or not."""
    n = len(cond.args)
    return not any(
        eff.pred == cond.pred and len(eff.args) == n and _union(eff.args, cond.args, store) is not None
        for eff in start.effects
    )


def schema_effect_unifies(cond: Literal, eff: SchemaLiteral, store: BindingStore) -> bool:
    """Would a fresh instance of `eff` unify with cond under store?

    Works without allocating variable ids or stores: repeated schema
    parameters force the corresponding condition arguments together,
    schema constants are paired against condition arguments directly.
    """
    if cond.pred != eff.pred or cond.positive != eff.positive or len(cond.args) != len(eff.args):
        return False
    bound: dict[str, Term] = {}
    xs: list[Term] = []
    ys: list[Term] = []
    for carg, sarg in zip(cond.args, eff.args):
        if not sarg.startswith("?"):
            xs.append(carg)
            ys.append(const(sarg))
        elif sarg in bound:
            xs.append(carg)
            ys.append(bound[sarg])
        else:
            bound[sarg] = carg  # first occurrence binds freely
    return not xs or _union(xs, ys, store) is not None


# ---------------------------------------------------------------------------
# threat detection


def _threat_kind(effect: Literal, condition: Literal, store: BindingStore, systematic: bool) -> str | None:
    """NONSEPARABLE / SEPARABLE when `effect` endangers `condition`, else None."""
    if effect.pred != condition.pred or len(effect.args) != len(condition.args):
        return None
    if effect.positive == condition.positive and not systematic:
        return None
    leader = _union(effect.args, condition.args, store)
    if leader is None:
        return None
    return SEPARABLE if leader else NONSEPARABLE


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
    new link (step id order).  A (step, link) pair is tested inline:
    the link's consumer is never threatened, nor is a positive link by
    its own producer, and a pair whose step is ordered out of the
    link's span (before its producer or after its consumer, one read of
    orderings.succ) holds nothing.  Within a pair, only an effect with
    the link condition's predicate and the opposite sign (under
    systematic, any sign) reaches _threat_kind; a producer's own
    deletes never do, since a step's deletes apply before its adds.
    The first pass also skips every link whose (pred, sign) no effect
    of the new step can threaten before testing its span.
    """
    found: list[tuple[str, int, Literal, CausalLink]] = []
    store = plan.bindings
    succ = plan.orderings.succ
    if new_step is not None:
        s = new_step.id
        effects = new_step.effects
        after = succ[s]
        # the (pred, sign) of every condition an effect can threaten
        hit = {(e.pred, g) for e in effects for g in (True, False) if systematic or g != e.positive}
        for link in plan.links:
            cond = link.condition
            pred, positive = cond.pred, cond.positive
            if (pred, positive) not in hit:
                continue
            own = s == link.producer
            if s == link.consumer or (own and positive):
                continue
            if (after >> link.producer) & 1 or (succ[link.consumer] >> s) & 1:
                continue
            for eff in effects:  # effects are distinct by construction
                if eff.pred != pred or (eff.positive == positive and not systematic) or (own and not eff.positive):
                    continue
                kind = _threat_kind(eff, cond, store, systematic)
                if kind is not None:
                    found.append((kind, s, eff, link))
    if new_link is not None:
        cond = new_link.condition
        pred, positive = cond.pred, cond.positive
        producer, consumer = new_link.producer, new_link.consumer
        later = succ[consumer]
        skip = -1 if new_step is None else new_step.id  # the new step was covered by the pass above
        for step in plan.steps:
            s = step.id
            if s == skip or s == consumer or (later >> s) & 1 or (succ[s] >> producer) & 1:
                continue
            own = s == producer
            if own and positive:
                continue
            for eff in step.effects:
                if eff.pred != pred or (eff.positive == positive and not systematic) or (own and not eff.positive):
                    continue
                kind = _threat_kind(eff, cond, store, systematic)
                if kind is not None:
                    found.append((kind, s, eff, new_link))
    return found


# ---------------------------------------------------------------------------
# refresh


def refresh_flaw(plan: PartialPlan, flaw: Flaw, delta: Delta | None = None) -> Flaw | None:
    """None when the flaw has vanished; a reclassified copy when a
    separable threat's unification became forced; otherwise the flaw
    itself.  Opens are live until linked.  With `delta`, the Delta that
    made `plan` from one where the threat was live with its kind, its
    ordering test runs only if delta.reordered, and its unification only
    if the Delta touches the effect's or the link condition's terms."""
    if flaw.kind == OPEN:
        return flaw
    link = flaw.link
    s = flaw.step
    if delta is None or delta.reordered:
        succ = plan.orderings.succ
        if (succ[s] >> link.producer) & 1 or (succ[link.consumer] >> s) & 1:
            return None
    store = plan.bindings
    if delta is not None and not (delta.rebound and delta.touches(flaw.literal.args + link.condition.args, store)):
        return flaw
    # systematic=True only widens the test to same-sign pairs, and a
    # same-sign flaw can only exist if that mode created it.
    kind = _threat_kind(flaw.literal, link.condition, store, systematic=True)
    if kind is None:
        return None
    if kind == flaw.kind:
        return flaw
    return Flaw(kind, s, flaw.literal, link, flaw.inserted_at, flaw.cached_cost)


def refresh_agenda(plan: PartialPlan, delta: Delta | None = None) -> PartialPlan:
    """Plan with vanished flaws dropped and threats reclassified.
    Returns the same object when nothing changed.

    Without `delta`, every threat is re-tested.  With `delta`, what the
    refinement that made `plan` changed, each is re-tested only as
    refresh_flaw says (Delta.touches).  An inherited threat was live,
    with its kind, in the expanded node; one the refinement found was
    found against the plan's own stores, so its re-test gives it back."""
    if delta is not None and not (delta.reordered or delta.rebound):
        return plan
    refreshed: list[Flaw] = []
    changed = False
    for f in plan.agenda:
        if f.kind != OPEN:
            r = refresh_flaw(plan, f, delta)
            if r is not f:
                changed = True
                if r is None:
                    continue
                f = r
        refreshed.append(f)
    if not changed:
        return plan
    return PartialPlan(plan.steps, plan.links, plan.orderings, plan.bindings, tuple(refreshed))


# ---------------------------------------------------------------------------
# repair enumeration


def enumerate_open_repairs(
    plan: PartialPlan, flaw: Flaw, domain: Domain, first: bool = False
) -> list[Repair]:
    """Every consistent establishment for an open condition, in the order
    init, reuse, new step, so that len(result) is the flaw's repair cost
    and the categories can feed new-step-preference tie-breaking.

    With first=True, return the first establishment in that order, never
    trying the plan's other steps: every such step is a library
    instance, so its effect unifies only if its schema does."""
    cond = flaw.literal
    store = plan.bindings
    out: list[Repair] = []

    start = plan.steps[START_ID]
    if cond.positive:
        for eff in start.effects:  # effects are distinct by construction
            if eff.pred == cond.pred and args_unifiable(cond, eff, store):
                out.append(Repair(FROM_START, START_ID, eff))
                if first:
                    return out
    elif _closed_world(cond, store, start):
        out.append(_CLOSED_WORLD)
        if first:
            return out

    if not first:
        _append_reuse(out, plan, flaw, GOAL_ID + 1)
    for op, i, eff in domain.establishers.get((cond.pred, cond.positive), ()):
        if schema_effect_unifies(cond, eff, store):
            out.append(Repair(NEW_STEP, -1, eff, op, i))
            if first:
                return out
    return out


def _append_reuse(out: list[Repair], plan: PartialPlan, flaw: Flaw, first_step: int) -> None:
    """Append the reuse of steps first_step, first_step + 1, ... (the
    dummies excluded) for an open condition, in step id order."""
    cond = flaw.literal
    store = plan.bindings
    after = plan.orderings.succ[flaw.step]  # the steps ordered after the open's own
    for st in plan.steps[first_step:]:
        if st.id == flaw.step or (after >> st.id) & 1:
            continue
        for eff in st.effects:  # effects are distinct by construction
            if eff.pred == cond.pred and eff.positive == cond.positive and args_unifiable(cond, eff, store):
                out.append(Repair(REUSE, st.id, eff))


@dataclass(slots=True, unsafe_hash=True)
class Delta:
    """What refining a parent plan into a child changed, made by
    search.refinements as it builds the child.  `rebound` holds the
    child's representative of every class that holds a term of the
    parent and whose members or disequalities changed.  A class that
    gained only a new step's fresh parameters is left out, since no term
    of the parent changed class.  `doomed` marks a child that gained a
    nonseparable threat neither promotion nor demotion repairs in its
    own orderings (orderable): the threat was found against the child's
    own stores, so its refresh gives it back, and the dead-end probe
    answers False for it."""

    reordered: bool  # the child's orderings are not the parent's object
    step_added: bool  # the child appended a step (a refinement appends at most one)
    rebound: frozenset[Term]
    doomed: bool = False  # a threat the child gained is nonseparable and not orderable

    def touches(self, terms: tuple[Term, ...], store: BindingStore) -> bool:
        """Does the child's `store` put one of `terms` in a class named in
        `rebound`?  If not, a codesignation test over `terms` answers as
        in the parent: the union kernel reads only their classes and the
        disequalities between them, and a class whose members and
        disequalities did not change answers every such question as
        before.  The one rule for what a refinement changed."""
        return not self.rebound.isdisjoint(map(store._rep.get, terms, terms))


# Shared: every built child's frontier entry holds its Delta, and most children
# rebind no term of their parent.
_UNBOUND = {(o, s): Delta(o, s, frozenset()) for o in (False, True) for s in (False, True)}


def rederive_open_repairs(plan: PartialPlan, flaw: Flaw, parent: list[Repair], row: int, delta: Delta) -> list[Repair]:
    """enumerate_open_repairs(plan, flaw, domain), derived from the
    open condition's repairs `parent` and its step's successor row `row`
    in the plan this one was refined from, given the Delta between them.

    A refinement only adds constraints: bindings merge classes or keep
    classes apart, orderings grow, steps are appended.  So a repair
    missing from the parent's list stays missing, and the child's list
    is the parent's repairs that still hold, plus reuse of the appended
    step, plus closed-world support for a negative condition that no
    initial atom can match any more.  A repair is re-tested only against
    what moved.  Reuse orderings are re-tested only if the open's own
    successor row differs from `row`; a new step is ordered after the
    start step alone, so it moves no row of another step.  A
    unification is re-tested only if the Delta touches the condition's
    or the effect's terms (Delta.touches).  When it touches none of the
    condition's terms, only the reuse repairs are re-unified: an initial
    atom is ground, and whether a condition unifies with a ground atom
    depends only on the condition's classes, their constants and their
    disequalities, with each other and with the atom's constants.  A
    class that gained a member or a disequality is rebound, so an
    untouched condition's classes are as in the parent, and it unifies
    with the atom as before.  The order is the enumeration's, and an
    unchanged list is `parent` itself."""
    step_added, rebound = delta.step_added, delta.rebound
    after = plan.orderings.succ[flaw.step]
    moved = after != row
    if not (moved or step_added or rebound):
        return parent
    cond = flaw.literal
    store = plan.bindings
    touched = bool(rebound) and delta.touches(cond.args, store)
    out: list[Repair] = []
    if (
        touched
        and not cond.positive
        and (not parent or parent[0] is not _CLOSED_WORLD)
        and _closed_world(cond, store, plan.steps[START_ID])
    ):
        out.append(_CLOSED_WORLD)
    if moved or rebound:
        for r in parent:
            kind = r.kind
            if kind == REUSE:
                if moved and (after >> r.step) & 1:
                    continue
                eff = r.effect
                if rebound and (touched or delta.touches(eff.args, store)) and not args_unifiable(cond, eff, store):
                    continue
            elif touched:
                eff = r.effect
                if kind == NEW_STEP:
                    keep = schema_effect_unifies(cond, eff, store)
                else:  # init; the closed world (no effect), once it holds, keeps holding
                    keep = eff is None or args_unifiable(cond, eff, store)
                if not keep:
                    continue
            out.append(r)
    else:
        out += parent
    if step_added:  # the new step's reuse goes after the older steps'
        at = len(out)
        while at and out[at - 1].kind == NEW_STEP:
            at -= 1
        reuse: list[Repair] = []
        _append_reuse(reuse, plan, flaw, len(plan.steps) - 1)
        out[at:at] = reuse
    return parent if out == parent else out


def threat_ordering(flaw: Flaw, kind: str) -> tuple[int, int]:
    """The (before, after) step pair that `kind`, PROMOTE or DEMOTE, orders
    to repair the threat `flaw`: promotion puts the link's consumer
    before the threatening step, demotion the step before the link's
    producer."""
    return (flaw.link.consumer, flaw.step) if kind == PROMOTE else (flaw.step, flaw.link.producer)


def orderable(succ: tuple[int, ...], flaw: Flaw) -> bool:
    """Does enumerate_threat_repairs find promotion or demotion for the
    threat `flaw` in the successor rows `succ`?  The dead-end probe's
    answer for a nonseparable threat, read by search.refinements too."""
    link = flaw.link
    s = flaw.step
    return not (succ[s] >> link.consumer) & 1 or (s != link.producer and not (succ[link.producer] >> s) & 1)


def enumerate_threat_repairs(plan: PartialPlan, flaw: Flaw) -> list[Repair]:
    """Promotion and demotion when consistent, read off orderings.succ:
    promotion unless the step already precedes the link's consumer,
    demotion unless the step is the link's producer (which can be
    ordered off neither side of its own link) or the producer already
    precedes it, which is with_ordering's answer to threat_ordering's
    pair.  For separable threats also one separation per argument
    pair not already forced equal; pairs of the same two class
    representatives collapse to the first one's repair."""
    link = flaw.link
    s = flaw.step
    succ = plan.orderings.succ
    out: list[Repair] = []
    if not (succ[s] >> link.consumer) & 1:
        out.append(_PROMOTE)
    if s != link.producer and not (succ[link.producer] >> s) & 1:
        out.append(_DEMOTE)
    if flaw.kind == SEPARABLE:
        get = plan.bindings._rep.get
        seen: list[tuple[Term, Term]] = []
        for x, y in zip(flaw.literal.args, link.condition.args):
            rx, ry = get(x, x), get(y, y)
            if rx == ry or (rx, ry) in seen or (ry, rx) in seen:
                continue
            seen.append((rx, ry))
            out.append(Repair(SEPARATE, -1, None, None, -1, (x, y)))
    return out


def enumerate_repairs(plan: PartialPlan, flaw: Flaw, domain: Domain) -> list[Repair]:
    if flaw.kind == OPEN:
        return enumerate_open_repairs(plan, flaw, domain)
    return enumerate_threat_repairs(plan, flaw)


# ---------------------------------------------------------------------------
# dead-end probe


def has_any_repair(plan: PartialPlan, flaw: Flaw, domain: Domain) -> bool:
    """Dead-end probe: bool(enumerate_repairs(plan, flaw, domain)) for a
    refreshed flaw, answered from the domain and the orderings where
    they settle it.  An open condition of a key in
    domain.always_establishable has a new-step repair; any other is
    enumerated to its first hit.  A separable threat has a separation
    (its arguments do not all codesignate yet); a nonseparable one is
    live when promotion or demotion is consistent (orderable)."""
    if flaw.kind == OPEN:
        cond = flaw.literal
        return (cond.pred, cond.positive) in domain.always_establishable or bool(
            enumerate_open_repairs(plan, flaw, domain, first=True)
        )
    if flaw.kind == SEPARABLE:
        return True
    return orderable(plan.orderings.succ, flaw)
