"""The refinement loop: ranking, refinements, pruning, limits, toggles."""

from fractions import Fraction

import pytest

from helpers import plan_with, separable_threat_fixture
from poclab.domains import bundled, parse_domain, parse_problem
from poclab.plan import OPEN, Flaw, make_skeletal_plan, serialize, validate_solution
from poclab.search import (
    EXHAUSTED,
    NODE_LIMIT,
    SOLVED,
    TIME_LIMIT,
    RankWeights,
    SearchConfig,
    dmin_feasible,
    parse_rank,
    plan_search,
    rank,
    refinements,
)
from poclab.strategies import builtin, builtin_names, parse_strategy
from poclab.terms import const, lit


def test_rank_weighted_sums():
    p = plan_with()  # counters come from the constructor
    p = p.__class__(p.steps, p.links, p.orderings, p.bindings, p.agenda, 2, 3, 1)
    assert rank(p, parse_rank("S+OC")) == 5
    assert rank(p, parse_rank("S+OC+UC")) == 6
    assert type(rank(p, parse_rank("S+OC"))) is int
    assert type(rank(p, parse_rank("S+OC+UC"))) is int
    assert rank(p, parse_rank("S+OC+.1UC")) == Fraction(51, 10)
    assert type(rank(p, parse_rank("S+OC+.1UC"))) is Fraction


def test_rank_on_skeletal_sussman():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    assert rank(plan, parse_rank("S+OC")) == 2  # S=0, OC=2


def test_parse_rank_labels_and_errors():
    assert parse_rank("S+OC") == RankWeights(Fraction(1), Fraction(1), Fraction(0))
    assert parse_rank("S+OC+UC").w_threats == 1
    assert parse_rank("S+OC+.1UC").w_threats == Fraction(1, 10)
    assert parse_rank("S+OC+0.1UC").w_threats == Fraction(1, 10)
    assert parse_rank("2S+OC").w_steps == 2
    assert parse_rank("S+OC+.1UC").label == "S+OC+0.1UC"
    assert parse_rank("S+OC").label == "S+OC"
    with pytest.raises(ValueError, match="'F'"):
        parse_rank("S+OC+.1UC+F")
    with pytest.raises(ValueError, match="twice"):
        parse_rank("S+S")
    with pytest.raises(ValueError):
        parse_rank("S-OC")


def test_trivial_problem_solves_immediately():
    dom = parse_domain(
        "(define (domain d) (:predicates (p ?x) (r ?x)) (:operator other :parameters (?x)"
        " :precondition (and (p ?x)) :effect (and (r ?x))))"
    )
    prob = parse_problem(
        "(define (problem t) (:domain d) (:objects A) (:init (p A)) (:goal (and (p A))))", dom
    )
    out = plan_search(dom, prob, builtin("UCPOP"), SearchConfig(node_limit=100))
    assert out.status == SOLVED
    assert out.plan.n_steps == 0
    assert all(lk.producer == 0 for lk in out.plan.links)
    assert out.stats.nodes_generated == 2  # the skeleton plus one establishment


def test_unsolvable_goal_exhausts_by_pruning():
    dom = parse_domain(
        "(define (domain d) (:predicates (p ?x) (impossible ?x))"
        " (:operator nop :parameters (?x) :precondition (and (p ?x)) :effect (and (p ?x))))"
    )
    prob = parse_problem(
        "(define (problem t) (:domain d) (:objects A) (:init (p A))"
        " (:goal (and (impossible A))))",
        dom,
    )
    out = plan_search(dom, prob, builtin("LCFR"), SearchConfig(node_limit=100))
    assert out.status == EXHAUSTED
    assert out.stats.nodes_generated == 1
    assert out.stats.nodes_pruned == 1
    assert out.stats.nodes_expanded == 0


def test_refinement_count_matches_repair_cost():
    dom = parse_domain(
        """
(define (domain d)
  (:predicates (on ?x ?y) (have ?x))
  (:operator put
    :parameters (?x ?y)
    :precondition (and (have ?x))
    :effect (and (on ?x ?y))))
"""
    )
    prob = parse_problem(
        "(define (problem t) (:domain d) (:objects A B) (:init (on A B))"
        " (:goal (and (on A B))))",
        dom,
    )
    plan = make_skeletal_plan(dom, prob)
    kids = refinements(plan, plan.agenda[0], dom)
    assert len(kids) == 2  # I=1, N=1


def test_separable_threat_yields_five_children():
    plan, flaw = separable_threat_fixture()
    plan = plan.__class__(
        plan.steps, plan.links, plan.orderings, plan.bindings, (flaw,),
        plan.n_steps, 0, 1,
    )
    dom, _ = bundled("blocks")
    kids = refinements(plan, flaw, dom)
    assert len(kids) == 5
    for kid in kids:
        assert flaw not in kid.agenda


def test_reverse_flag_reverses_new_step_preconditions():
    dom, probs = bundled("blocks")
    plan = make_skeletal_plan(dom, probs[0])
    flaw = plan.agenda[0]  # (on A B): move or move-from-table
    normal = refinements(plan, flaw, dom, SearchConfig())
    reversed_ = refinements(plan, flaw, dom, SearchConfig(reverse_preconditions=True))

    def new_open_preds(child):
        added = [f for f in child.agenda if f.kind == OPEN and f.step == 2]
        assert all(
            b.inserted_at > a.inserted_at for a, b in zip(added, added[1:])
        )  # appended in insertion order
        return [f.literal.pred for f in added]

    assert new_open_preds(normal[-1]) == ["on-table", "clear", "clear"]
    assert new_open_preds(reversed_[-1]) == ["clear", "clear", "on-table"]


def test_dmin_feasible():
    from poclab.plan import NONSEPARABLE, CausalLink, Step

    assert dmin_feasible(plan_with())  # no threats at all

    # two ground threats whose only repairs force s4 before and after s5
    p_lit, q_lit = lit("p", const("A")), lit("q", const("A"))
    s2 = Step(2, "p2", (), (), (p_lit,), 0)
    s3 = Step(3, "c3", (), (), (), 0)
    s4 = Step(4, "t4", (), (), (p_lit.negated(), q_lit), 0)
    s5 = Step(5, "t5", (), (), (q_lit.negated(), p_lit), 0)
    link_a = CausalLink(2, p_lit, 3, 0)
    link_b = CausalLink(4, q_lit, 3, 0)
    fa = Flaw(NONSEPARABLE, 5, p_lit.negated(), link_a, 1)

    one = plan_with(steps=(s2, s3, s4, s5), links=(link_a,), order_pairs=((2, 3),), agenda=(fa,))
    assert dmin_feasible(one)  # both promotion and demotion open

    fb = Flaw(NONSEPARABLE, 5, q_lit.negated(), link_b, 2)
    fa2 = Flaw(NONSEPARABLE, 4, p_lit.negated(), link_a, 3)
    # force contradictions: threat a demands 5 outside (2,3); threat b
    # demands 5 outside (4,3); with 2<4<3 and 3's links, promotion of
    # both is blocked while demotions collide
    both = plan_with(
        steps=(s2, s3, s4, s5),
        links=(link_a, link_b),
        order_pairs=((2, 3), (4, 3), (2, 4), (5, 3), (4, 5)),
        agenda=(fa2, fb),
    )
    # threat fa2 is step 4 against link 2->3: promotion (3 before 4)
    # cycles, demotion (4 before 2) cycles: infeasible
    assert not dmin_feasible(both)


def test_dmin_pruning_is_sound():
    dom, probs = bundled("blocks")
    base = SearchConfig(node_limit=10000)
    with_dmin = SearchConfig(node_limit=10000, dmin_check=True)
    for prob in probs:
        a = plan_search(dom, prob, builtin("UCPOP"), base)
        b = plan_search(dom, prob, builtin("UCPOP"), with_dmin)
        assert a.solved and b.solved
        assert b.stats.nodes_generated <= a.stats.nodes_generated


def test_node_limit_with_bounded_overshoot():
    dom, probs = bundled("blocks")
    out = plan_search(dom, probs[0], builtin("LCFR"), SearchConfig(node_limit=5))
    assert out.status == NODE_LIMIT
    assert 5 <= out.stats.nodes_generated < 15  # at most one expansion beyond


def test_time_limit_status():
    dom, probs = bundled("tileworld")
    out = plan_search(dom, probs[3], builtin("UCPOP"), SearchConfig(time_limit=0.05))
    assert out.status == TIME_LIMIT
    assert out.stats.wall_seconds >= 0.05


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        SearchConfig(cost_mode="sometimes")
    with pytest.raises(ValueError):
        SearchConfig(node_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(time_limit=0)


def test_determinism_across_runs():
    dom, probs = bundled("briefcase")
    for name in ("UCPOP", "LCFR", "ZLIFO", "QLCFR"):
        runs = [
            plan_search(dom, probs[0], builtin(name), SearchConfig(node_limit=4000, seed=11))
            for _ in range(2)
        ]
        assert runs[0].stats.nodes_generated == runs[1].stats.nodes_generated
        assert runs[0].status == runs[1].status


def test_random_strategy_is_deterministic_given_seed():
    dom, probs = bundled("blocks")
    strategy = parse_strategy("{n,s}LIFO / {o}R", name="random-opens")
    a = plan_search(dom, probs[0], strategy, SearchConfig(node_limit=4000, seed=5))
    b = plan_search(dom, probs[0], strategy, SearchConfig(node_limit=4000, seed=5))
    c = plan_search(dom, probs[0], strategy, SearchConfig(node_limit=4000, seed=6))
    assert a.stats.nodes_generated == b.stats.nodes_generated
    assert a.solved and c.solved  # both seeds solve, possibly differently


GROUND = parse_domain(
    """
(define (domain toggle)
  (:predicates (p) (q) (r))
  (:operator mk-q
    :parameters ()
    :precondition (and (p))
    :effect (and (q) (not (p))))
  (:operator mk-r
    :parameters ()
    :precondition (and (p))
    :effect (and (r) (not (p))))
  (:operator re-p
    :parameters ()
    :precondition (and (q))
    :effect (and (p))))
"""
)

GROUND_PROBLEM = parse_problem(
    "(define (problem g) (:domain toggle) (:objects X) (:init (p))"
    " (:goal (and (q) (r))))",
    GROUND,
)


def test_systematic_mode_never_duplicates_nodes():
    class Dedup:
        def __init__(self):
            self.seen = {}
            self.duplicates = []

        def on_enqueue(self, plan):
            key = serialize(plan)
            if key in self.seen:
                self.duplicates.append(key)
            self.seen[key] = True

    for strategy in ("UCPOP", "LCFR", "DSep"):
        obs = Dedup()
        out = plan_search(
            GROUND,
            GROUND_PROBLEM,
            builtin(strategy),
            SearchConfig(node_limit=4000, systematic=True),
            observer=obs,
        )
        assert out.solved
        assert not obs.duplicates, f"{strategy} enqueued a duplicate plan"


def test_systematic_mode_detects_same_sign_threats():
    class CountSameSign:
        def __init__(self):
            self.count = 0

        def on_enqueue(self, plan):
            for f in plan.agenda:
                if f.is_threat and f.literal.positive == f.link.condition.positive:
                    self.count += 1

    off_obs, on_obs = CountSameSign(), CountSameSign()
    off = plan_search(
        GROUND, GROUND_PROBLEM, builtin("UCPOP"), SearchConfig(node_limit=4000), observer=off_obs
    )
    on = plan_search(
        GROUND,
        GROUND_PROBLEM,
        builtin("UCPOP"),
        SearchConfig(node_limit=4000, systematic=True),
        observer=on_obs,
    )
    assert off.solved and on.solved
    assert validate_solution(on.plan, GROUND, GROUND_PROBLEM)
    assert off_obs.count == 0
    assert on_obs.count > 0


def test_every_builtin_solves_sussman():
    dom, probs = bundled("blocks")
    for name in builtin_names():
        out = plan_search(dom, probs[0], builtin(name), SearchConfig(node_limit=10000))
        assert out.solved, name
        assert validate_solution(out.plan, dom, probs[0]), name


@pytest.mark.xfail(
    strict=True,
    reason="plan_search caches the root's costs for builtin QLCFR, but refinements "
    "reads only config.cost_mode, so flaws added below the root carry no cached cost",
)
def test_builtin_qlcfr_caches_every_agenda_flaw_cost():
    dom, probs = bundled("blocks")

    class Obs:
        def on_enqueue(self, plan):
            for f in plan.agenda:
                assert f.cached_cost is not None, f.describe()

    out = plan_search(dom, probs[0], builtin("QLCFR"), SearchConfig(node_limit=10000), observer=Obs())
    assert out.solved


def test_new_step_establishes_through_repeated_effect():
    # step effects are kept once each, so a repeated effect must not shift
    # the index of the effects after it
    dom = parse_domain(
        "(define (domain d) (:predicates (p ?x) (r ?x)) (:operator mk :parameters (?x)"
        " :precondition (and) :effect (and (p ?x) (p ?x) (r ?x))))"
    )
    prob = parse_problem(
        "(define (problem t) (:domain d) (:objects A) (:init) (:goal (and (r A))))", dom
    )
    out = plan_search(dom, prob, builtin("UCPOP"), SearchConfig(node_limit=100))
    assert out.solved
    assert validate_solution(out.plan, dom, prob)


def test_negative_goal_via_explicit_deleter():
    dom = parse_domain(
        """
(define (domain neg)
  (:predicates (p ?x) (q ?x))
  (:operator del-p
    :parameters (?x)
    :precondition (and (q ?x))
    :effect (and (not (p ?x)))))
"""
    )
    prob = parse_problem(
        "(define (problem n) (:domain neg) (:objects A)"
        " (:init (p A) (q A)) (:goal (and (not (p A)))))",
        dom,
    )
    for name in ("UCPOP", "LCFR", "ZLIFO"):
        out = plan_search(dom, prob, builtin(name), SearchConfig(node_limit=1000))
        assert out.solved, name
        assert out.plan.n_steps == 1
        assert validate_solution(out.plan, dom, prob)


def test_negative_goal_via_closed_world_is_protected():
    # the closed-world link from the start step is a real causal link:
    # steps that would assert the atom inside its span become threats
    dom = parse_domain(
        """
(define (domain neg2)
  (:predicates (p ?x) (q ?x))
  (:operator mk-both
    :parameters (?x)
    :precondition (and)
    :effect (and (q ?x) (p ?x))))
"""
    )
    prob = parse_problem(
        "(define (problem n) (:domain neg2) (:objects A B)"
        " (:init) (:goal (and (q A) (not (p B)))))",
        dom,
    )
    for name in ("UCPOP", "LCFR"):
        out = plan_search(dom, prob, builtin(name), SearchConfig(node_limit=2000))
        assert out.solved, name
        result = validate_solution(out.plan, dom, prob)
        assert result, result.message
