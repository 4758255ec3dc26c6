"""Hand-built plan nodes shared across test modules."""

from poclab.flaws import _threat_kind
from poclab.plan import (
    GOAL_ID,
    SEPARABLE,
    START_ID,
    CausalLink,
    Flaw,
    OrderingStore,
    PartialPlan,
    Step,
)
from poclab.terms import EMPTY_STORE, Literal, const, lit, var

t, u, v = var("?t", 103), var("?u", 104), var("?v", 105)
x, y, z = var("?x", 100), var("?y", 101), var("?z", 102)


def forced_complementary(e, f, store):
    """Reference for the nonseparable-threat test: e and the negation of
    f carry the same predicate and every argument pair is already forced
    equal."""
    if e.pred != f.pred or e.positive == f.positive or len(e.args) != len(f.args):
        return False
    return all(store.forced_equal(x, y) for x, y in zip(e.args, f.args))


def instantiate_literal(schema, mapping):
    """Reference for plan.instantiate_step's literals: each schema
    argument looked up by name, a parameter in `mapping`, any other name
    a constant."""
    args = tuple(mapping[a] if a.startswith("?") else const(a) for a in schema.args)
    return Literal(schema.positive, schema.pred, args)


def unfiltered_threats(plan, new_step, new_link, systematic):
    """Reference for flaws.detect_new_threats: the same delta scanned in
    the same order, with every effect of every (step, link) pair in a
    link's span tested by flaws._threat_kind and no predicate filter."""

    def pair(step, link):
        own = step.id == link.producer
        if step.id == link.consumer or (own and link.condition.positive):
            return []
        if plan.orderings.precedes(step.id, link.producer) or plan.orderings.precedes(link.consumer, step.id):
            return []
        out = []
        for eff in step.effects:
            if own and not eff.positive:
                continue  # deletes apply before adds: a producer threatens its link only by adding
            kind = _threat_kind(eff, link.condition, plan.bindings, systematic)
            if kind is not None:
                out.append((kind, step.id, eff, link))
        return out

    found = []
    if new_step is not None:
        for link in plan.links:
            found += pair(new_step, link)
    if new_link is not None:
        for step in plan.steps:
            if new_step is None or step.id != new_step.id:
                found += pair(step, new_link)
    return found


def plan_with(steps=(), links=(), order_pairs=(), bindings=EMPTY_STORE, agenda=()):
    """Node with explicit parts; `steps` excludes the two dummies."""
    start = Step(START_ID, "start", (), (), ())
    goal = Step(GOAL_ID, "goal", (), (), ())
    all_steps = (start, goal) + tuple(steps)
    o = OrderingStore.initial()
    for st in steps:
        o = o.with_step(st.id)
    for a, b in order_pairs:
        o = o.with_ordering(a, b)
        assert o is not None
    return PartialPlan(all_steps, tuple(links), o, bindings, tuple(agenda))


def separable_threat_fixture():
    """The canonical three-variable pattern: an effect P(x,y,z) against
    a link carrying (not (P t u v)), nothing bound, nothing ordered."""
    producer = Step(2, "producer", (), (), (lit("P", t, u, v, positive=False),))
    consumer = Step(3, "consumer", (), (lit("P", t, u, v, positive=False),), ())
    threatener = Step(4, "threatener", (), (), (lit("P", x, y, z),))
    link = CausalLink(2, lit("P", t, u, v, positive=False), 3)
    plan = plan_with(
        steps=(producer, consumer, threatener),
        links=(link,),
        order_pairs=((2, 3),),
    )
    flaw = Flaw(SEPARABLE, 4, lit("P", x, y, z), link, inserted_at=9)
    return plan, flaw
