"""Plan nodes: skeletal construction, orderings, linearization,
validation, immutability, serialization."""

import pytest

import oracle
from poclab.domains import bundled, parse_domain, parse_problem
from poclab.flaws import (
    DEMOTE,
    FROM_START,
    NEW_STEP,
    PROMOTE,
    REUSE,
    SEPARATE,
    enumerate_repairs,
)
from poclab.plan import (
    GOAL_ID,
    START_ID,
    CausalLink,
    OrderingStore,
    PartialPlan,
    linearize,
    make_skeletal_plan,
    recount,
    serialize,
    validate_solution,
)
from poclab.search import SearchConfig, parse_rank, plan_search
from poclab.strategies import builtin
from poclab.terms import const, lit

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
    assert recount(plan) == (0, 0, 0)


def test_skeletal_single_goal():
    plan = make_skeletal_plan(MINI, mini_problem("(q A)", "(p A)"))
    assert [f.kind for f in plan.agenda] == ["o"]
    assert plan.agenda[0].step == GOAL_ID
    assert str(plan.agenda[0].literal) == "(p A)"


def test_skeletal_sussman_counts():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    assert (plan.n_steps, plan.n_open, plan.n_threats) == (0, 2, 0)
    assert recount(plan) == (0, 2, 0)
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
    p = PartialPlan(base.steps + (base.steps[0],), base.links, o, base.bindings, (), 1, 0, 0)
    assert linearize(p) == [0, 2, 1]
    o = o.with_step(3)
    p = PartialPlan(base.steps + (base.steps[0], base.steps[0]), base.links, o, base.bindings, (), 2, 0, 0)
    assert linearize(p) == [0, 2, 3, 1]  # unordered pair broken by id


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
    bad_link = CausalLink(GOAL_ID, lit("p", const("A")), START_ID, 0)
    p = PartialPlan(base.steps, (bad_link,), base.orderings, base.bindings, (), 0, 0, 0)
    result = validate_solution(p, MINI, prob)
    assert not result
    assert "producer not before consumer" in result.message


def test_validate_rejects_plan_with_flaws():
    prob = mini_problem("(q A)", "(p A)")
    plan = make_skeletal_plan(MINI, prob)
    result = validate_solution(plan, MINI, prob)
    assert not result and "flaws" in result.message


def test_sussman_solution_validates_and_matches_oracle():
    dom, probs = bundled("blocks")
    out = plan_search(dom, probs[0], builtin("UCPOP"), SearchConfig(node_limit=10000))
    assert out.solved
    assert out.plan.n_steps == 3
    assert oracle.optimal_length(dom, probs[0], max_depth=4) == 3
    assert validate_solution(out.plan, dom, probs[0])


def test_parent_serialization_unchanged_by_refinement():
    from poclab.search import refinements

    dom, probs = bundled("blocks")
    parent = make_skeletal_plan(dom, probs[0])
    before = serialize(parent)
    kids = refinements(parent, parent.agenda[0], dom)
    assert kids
    assert serialize(parent) == before
    for kid in kids:
        s, oc, uc = recount(kid)
        assert (kid.n_steps, kid.n_open, kid.n_threats) == (s, oc, uc)


def test_serialization_golden():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    expected = (
        "steps:\n"
        "  0 start\n"
        "  1 goal\n"
        "links:\n"
        "orderings:\n"
        "  0<1\n"
        "bindings:\n"
        "  classes: - | neq: -\n"
        "agenda:\n"
        "  o (on A B) @1\n"
        "  o (on B C) @1\n"
    )
    assert serialize(plan) == expected


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

    class Obs:
        def __init__(self):
            self.checked = 0
            self.kinds = set()

        def on_expand(self, plan, flaw, children):
            self.kinds.update(r.kind for r in enumerate_repairs(plan, flaw, dom))

        def on_enqueue(self, plan):
            assert (plan.n_steps, plan.n_open, plan.n_threats) == recount(plan)
            self.checked += 1

    obs = Obs()
    config = SearchConfig(rank=parse_rank(rank), node_limit=10000)
    out = plan_search(dom, prob, builtin(strategy), config, observer=obs)
    assert out.solved
    assert obs.checked == out.stats.nodes_generated
    assert kinds <= obs.kinds


def test_links_always_respect_orderings():
    dom, probs = bundled("blocks")

    class Obs:
        def on_enqueue(self, plan):
            for lk in plan.links:
                assert plan.precedes(lk.producer, lk.consumer)

    out = plan_search(dom, probs[0], builtin("LCFR"), SearchConfig(node_limit=2000), observer=Obs())
    assert out.solved
