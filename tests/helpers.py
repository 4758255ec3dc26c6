"""Hand-built plan nodes shared across test modules."""

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
from poclab.terms import EMPTY_STORE, lit, var

t, u, v = var("?t", 103), var("?u", 104), var("?v", 105)
x, y, z = var("?x", 100), var("?y", 101), var("?z", 102)


def forced_complementary(e, f, store):
    """Reference for the nonseparable-threat test: e and the negation of
    f carry the same predicate and every argument pair is already forced
    equal."""
    if e.pred != f.pred or e.positive == f.positive or len(e.args) != len(f.args):
        return False
    return all(store.forced_equal(x, y) for x, y in zip(e.args, f.args))


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
