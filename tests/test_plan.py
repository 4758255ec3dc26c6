"""Plan nodes: skeletal construction, orderings, linearization,
validation, immutability."""

import copy
import itertools
import pickle
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import EveryNode
from poclab.domains import bundled, parse_domain, parse_problem
from poclab.flaws import (
    DEMOTE,
    FROM_START,
    NEW_STEP,
    PROMOTE,
    REUSE,
    SEPARATE,
    Delta,
    Repair,
    enumerate_open_repairs,
    enumerate_repairs,
    has_any_repair,
    refresh_agenda,
)
from poclab.plan import (
    GOAL_ID,
    NONSEPARABLE,
    OPEN,
    START_ID,
    CausalLink,
    Flaw,
    OrderingStore,
    PartialPlan,
    Step,
    ground_assignment,
    linearize,
    make_skeletal_plan,
    validate_solution,
)
from poclab.search import SearchConfig, parse_rank, plan_search
from poclab.strategies import builtin
from poclab.terms import EMPTY_STORE, const, lit, var

MINI = parse_domain(
    """
(define (domain mini)
  (:predicates (p ?x) (q ?x))
  (:operator make-p
    :parameters (?x)
    :precondition (and (q ?x))
    :effect (and (p ?x))))
"""
)


def mini_problem(init, goal):
    return parse_problem(
        f"(define (problem m) (:domain mini) (:objects A B C)"
        f" (:init {init}) (:goal (and {goal})))".replace("(:init )", "(:init)"),
        MINI,
    )


def test_skeletal_empty_goal_is_flaw_free():
    prob = parse_problem(
        "(define (problem e) (:domain mini) (:objects A) (:init (p A)) (:goal (and)))", MINI
    )
    plan = make_skeletal_plan(MINI, prob)
    assert plan.agenda == ()
    assert (plan.n_steps, plan.n_open) == (0, 0)


def test_skeletal_single_goal():
    plan = make_skeletal_plan(MINI, mini_problem("(q A)", "(p A)"))
    assert [f.kind for f in plan.agenda] == ["o"]
    assert plan.agenda[0].step == GOAL_ID
    assert str(plan.agenda[0].literal) == "(p A)"


def test_skeletal_sussman_counts():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    assert (plan.n_steps, plan.n_open, len(plan.agenda)) == (0, 2, 2)
    # declared order: (on A B) first, (on B C) second
    assert [str(f.literal) for f in plan.agenda] == ["(on A B)", "(on B C)"]
    rev = make_skeletal_plan(dom, probs[0], reverse=True)
    assert [str(f.literal) for f in rev.agenda] == ["(on B C)", "(on A B)"]


def test_skeletal_rejects_undeclared_goal_predicate():
    prob = mini_problem("(q A)", "(p A)")
    bad = parse_problem(
        "(define (problem b) (:domain mini) (:objects A) (:init) (:goal (and (r A))))"
    )  # no domain passed, so parsing allows it
    with pytest.raises(ValueError, match="undeclared predicate"):
        make_skeletal_plan(MINI, bad)


def test_add_ordering_cycle_and_idempotence():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    # fabricate two extra steps
    o = plan.orderings.with_step(2).with_step(3)
    o2 = o.with_ordering(2, 3)
    assert o2 is not None
    assert o2.with_ordering(3, 2) is None  # cycle
    assert o2.with_ordering(2, 3) is o2  # already implied
    assert o2.with_ordering(3, 3) is None  # self-loop


def test_precedes_closure():
    o = OrderingStore.initial().with_step(2).with_step(3).with_step(4)
    o = o.with_ordering(2, 3)
    o = o.with_ordering(3, 4)
    assert o.precedes(2, 4)  # transitive
    assert o.precedes(START_ID, GOAL_ID)
    assert o.precedes(START_ID, 4)
    assert not o.precedes(4, 2)
    assert not o.precedes(2, 2)


def test_linearize_cases():
    dom, probs = bundled("blocks")
    base = make_skeletal_plan(dom, probs[0])
    assert linearize(base) == [0, 1]
    o = base.orderings.with_step(2)
    p = PartialPlan(base.steps + (base.steps[0],), base.links, o, base.bindings, ())
    assert linearize(p) == [0, 2, 1]
    o = o.with_step(3)
    p = PartialPlan(base.steps + (base.steps[0], base.steps[0]), base.links, o, base.bindings, ())
    assert linearize(p) == [0, 2, 3, 1]  # unordered pair broken by id


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linearize_places_the_lowest_step_whose_predecessors_are_placed(data):
    n = data.draw(st.integers(2, 11))
    o = OrderingStore.initial()
    for sid in range(2, n):
        o = o.with_step(sid)
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)):
        o = o.with_ordering(a, b) or o
    steps = tuple(Step(i, f"s{i}", (), (), ()) for i in range(n))
    order = linearize(PartialPlan(steps, (), o, EMPTY_STORE, ()))
    assert sorted(order) == list(range(n))
    assert all(order.index(a) < order.index(b) for a in range(n) for b in range(n) if o.precedes(a, b))
    for i, sid in enumerate(order):
        left = order[i:]
        assert sid == min(b for b in left if not any(o.precedes(a, b) for a in left))


def test_validate_empty_goal_plan():
    prob = parse_problem(
        "(define (problem e) (:domain mini) (:objects A) (:init (p A)) (:goal (and)))", MINI
    )
    plan = make_skeletal_plan(MINI, prob)
    result = validate_solution(plan, MINI, prob)
    assert result
    assert result.grounded_variables == 0


def test_validate_flags_link_ordering_breach():
    prob = mini_problem("(q A)", "(p A)")
    base = make_skeletal_plan(MINI, prob)
    # a link whose producer does not precede its consumer
    bad_link = CausalLink(GOAL_ID, lit("p", const("A")), START_ID)
    p = PartialPlan(base.steps, (bad_link,), base.orderings, base.bindings, ())
    result = validate_solution(p, MINI, prob)
    assert not result
    assert "producer not before consumer" in result.message


def test_validate_rejects_plan_with_flaws():
    prob = mini_problem("(q A)", "(p A)")
    plan = make_skeletal_plan(MINI, prob)
    result = validate_solution(plan, MINI, prob)
    assert not result and "flaws" in result.message


def _plan_over(variables, bindings):
    """A flaw-free plan whose one library step takes `variables` as
    parameters and has no preconditions or effects."""
    steps = (
        Step(START_ID, "start", (), (), ()),
        Step(GOAL_ID, "goal", (), (), ()),
        Step(2, "pair", tuple(variables), (), ()),
    )
    return PartialPlan(steps, (), OrderingStore.initial().with_step(2), bindings, ())


def _kept_apart_from_b():
    """?x != ?y and ?y != B: taking ?x first, the lowest name A leaves
    ?y nothing among (A, B), yet {?x: B, ?y: A} grounds the store."""
    x, y = var("?x", 0), var("?y", 1)
    return x, y, _plan_over((x, y), EMPTY_STORE.require_distinct(x, y).require_distinct(y, const("B")))


def test_grounding_backs_up_past_the_lowest_name():
    x, y, plan = _kept_apart_from_b()
    assert ground_assignment(plan, ("B", "A")) == {x: const("B"), y: const("A")}
    assert ground_assignment(plan, ("A", "B", "C")) == {x: const("A"), y: const("C")}  # greedy's answer
    assert ground_assignment(plan, ("B",)) is None


def test_a_flaw_free_plan_that_only_backtracking_grounds_validates():
    x, y, plan = _kept_apart_from_b()
    dom = parse_domain("(define (domain pairs) (:predicates (p ?x)))")
    prob = parse_problem("(define (problem two) (:domain pairs) (:objects A B) (:init) (:goal (and)))", dom)
    result = validate_solution(plan, dom, prob)
    assert result, result.message
    assert result.assignment == {x: const("B"), y: const("A")}
    assert result.grounded_variables == 2


def _first_grounding(plan, names):
    """The first consistent map in (class key, sorted name) order, by
    trying every one."""
    reps = {plan.bindings.find(t) for t in plan.steps[2].params}
    classes = sorted((r for r in reps if r.is_variable), key=lambda t: t.key)
    for combo in itertools.product(sorted(set(names)), repeat=len(classes)):
        chosen = dict(zip(classes, combo))
        if all(
            (o.name if not o.is_variable else chosen[o]) != chosen[r]
            for r in classes
            for o in plan.bindings.neq_reps_of(r)
        ):
            return {r: const(n) for r, n in chosen.items()}
    return None


def test_grounding_equals_the_first_consistent_map_on_random_stores():
    rng = random.Random(5)
    solved = unsolved = 0
    for _ in range(600):
        variables = [var(f"?v{i}", i) for i in range(rng.randint(1, 6))]
        store = EMPTY_STORE
        for _ in range(rng.randint(0, 9)):
            a = rng.choice(variables)
            b = const(rng.choice("ABC")) if rng.random() < 0.3 else rng.choice(variables)
            store = (store.merge(a, b) if rng.random() < 0.15 else store.require_distinct(a, b)) or store
        plan = _plan_over(variables, store)
        names = tuple("ABC"[: rng.randint(1, 3)])
        got = ground_assignment(plan, names)
        assert got == _first_grounding(plan, names), (store, names)
        solved += got is not None
        unsolved += got is None
    assert solved > 100 and unsolved > 100


def test_sussman_solution_validates_and_matches_oracle():
    dom, probs = bundled("blocks")
    out = plan_search(dom, probs[0], builtin("UCPOP"), SearchConfig(node_limit=10000))
    assert out.solved
    assert out.plan.n_steps == 3
    assert oracle.optimal_length(dom, probs[0], max_depth=4) == 3
    assert validate_solution(out.plan, dom, probs[0])


def test_parent_unchanged_by_refinement():
    from poclab.search import refinements

    dom, probs = bundled("blocks")
    parent = make_skeletal_plan(dom, probs[0])
    # a deep copy shares no store dict or literal with the parent, so a
    # refinement that wrote into either would show here
    before = copy.deepcopy(parent)
    kids = refinements(parent, parent.agenda[0], dom)
    assert kids
    assert parent == before
    # a new move or move-from-table step: its three preconditions plus (on B C)
    assert [(kid.n_steps, kid.n_open, len(kid.agenda)) for kid, _ in kids] == [(1, 4, 4), (1, 4, 4)]


def _hand_built_plan():
    """A node with a library step, a link, a merge, a disequality, an
    open condition and a cached-cost threat."""
    x, y, a, b = var("?x", 0), var("?y", 1), const("A"), const("B")
    start = Step(START_ID, "start", (), (), (lit("on", a, b), lit("clear", a)))
    goal = Step(GOAL_ID, "goal", (), (lit("on", b, a),), ())
    move = Step(
        2, "move", (x, y), (lit("clear", x), lit("on", x, y)), (lit("on", y, x), lit("on", x, y, positive=False))
    )
    link = CausalLink(START_ID, lit("clear", a), 2)
    bindings = EMPTY_STORE.merge(x, a).require_distinct(y, b)
    orderings = OrderingStore.initial().with_step(2).with_ordering(START_ID, 2)
    agenda = (
        Flaw(OPEN, 2, lit("on", x, y), None, 3),
        Flaw(NONSEPARABLE, 2, lit("on", x, y, positive=False), link, 4, 1),
    )
    return PartialPlan((start, goal, move), (link,), orderings, bindings, agenda)


def test_node_records_print_as_before():
    """The text of a step and a link, as the records printed it when
    they were frozen dataclasses."""
    plan = _hand_built_plan()
    assert str(plan.steps[2]) == "move(?x.0 ?y.1)"
    assert str(plan.steps[START_ID]) == "start"
    assert str(plan.links[0]) == "(0 (clear A) 2)"


def test_node_records_are_immutable_values():
    """Each record built per child, and each Repair and Delta, keeps no
    __dict__, compares by its fields and hashes as the tuple of them,
    copies equal but distinct through dataclasses.replace, and changes
    one field through it.  The records are immutable by contract: that
    src/poclab assigns to no field once a record is built is checked in
    its source, by test_package.py.  A plan does not hash, as its
    binding store holds a dict."""
    plan = _hand_built_plan()
    move = plan.steps[2]
    records = [
        (move, "name", "stack"),
        (plan.links[0], "consumer", GOAL_ID),
        (plan.agenda[1], "cached_cost", 5),
        (plan, "agenda", ()),
        (Repair(REUSE, 2, move.effects[0]), "step", 3),
        (Delta(True, False, frozenset(move.params)), "rebound", frozenset()),
    ]
    for record, field, value in records:
        assert not hasattr(record, "__dict__")
        values = tuple(getattr(record, f.name) for f in fields(record))
        twin = type(record)(*values)
        assert twin == record and twin is not record
        if record is not plan:
            assert hash(twin) == hash(record) == hash(values)
        copy = replace(record)
        assert copy == record and copy is not record and type(copy) is type(record)
        changed = replace(record, **{field: value})
        assert getattr(changed, field) == value and changed != record
        assert replace(changed, **{field: getattr(record, field)}) == record


def test_a_searched_plan_pickles_and_compares_equal():
    dom, probs = bundled("tileworld")
    prob = next(p for p in probs if p.name == "tileworld-2")
    out = plan_search(dom, prob, builtin("LCFR"), SearchConfig(node_limit=10000))
    assert out.solved and out.plan.links
    back = pickle.loads(pickle.dumps(out.plan))
    assert back == out.plan and back is not out.plan
    assert type(back.steps[-1]) is Step and type(back.links[0]) is CausalLink
    assert validate_solution(back, dom, prob)


@pytest.mark.parametrize(
    "domain, problem, strategy, rank, kinds",
    [
        ("briefcase", "get-paid", "DSep", "S+OC", {FROM_START, REUSE, NEW_STEP, PROMOTE}),
        # reaches every repair kind, so every child-building path is checked
        ("tileworld", "tileworld-2", "UCPOP", "S+OC+UC",
         {FROM_START, REUSE, NEW_STEP, PROMOTE, DEMOTE, SEPARATE}),
    ],
    ids=["briefcase-DSep", "tileworld-2-UCPOP"],
)
def test_counter_consistency_along_search(domain, problem, strategy, rank, kinds):
    dom, probs = bundled(domain)
    prob = next(p for p in probs if p.name == problem)

    class Obs(EveryNode):
        def __init__(self):
            self.checked = 0
            self.dead = 0
            self.kinds = set()

        def on_expand(self, plan, flaw, children):
            self.kinds.update(r.kind for r in enumerate_repairs(plan, flaw, dom))
            super().on_expand(plan, flaw, children)

        def visit(self, plan):
            # step ids are dense, which n_steps relies on
            assert [s.id for s in plan.steps] == list(range(len(plan.steps)))
            self.checked += 1
            # the dead-end probe answers as the enumeration does, and the
            # open scan stopped at its first hit finds one of its repairs
            live = refresh_agenda(plan)
            for f in live.agenda:
                full = enumerate_repairs(live, f, dom)
                assert has_any_repair(live, f, dom) == bool(full)
                if f.kind == OPEN:
                    first = enumerate_open_repairs(live, f, dom, first=True)
                    assert len(first) == min(len(full), 1)
                    assert all(r in full for r in first)
                self.dead += not full
                # steps are library instances: reuse implies a new step,
                # which is why the probe skips the step scan
                kinds = {r.kind for r in full}
                assert NEW_STEP in kinds or REUSE not in kinds

    obs = Obs()
    config = SearchConfig(rank=parse_rank(rank), node_limit=10000)
    out = plan_search(dom, prob, builtin(strategy), config, observer=obs)
    assert out.solved
    assert obs.checked == out.stats.nodes_generated
    assert kinds <= obs.kinds
    assert obs.dead > 0


def test_links_always_respect_orderings():
    dom, probs = bundled("blocks")

    class Obs(EveryNode):
        def visit(self, plan):
            for lk in plan.links:
                assert plan.orderings.precedes(lk.producer, lk.consumer)

    out = plan_search(dom, probs[0], builtin("LCFR"), SearchConfig(node_limit=2000), observer=Obs())
    assert out.solved
