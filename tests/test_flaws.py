"""Flaw detection, classification, repair enumeration, repair costs."""

import pickle
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poclab import flaws, search
from poclab.domains import bundled, bundled_names, parse_domain, parse_problem
from poclab.flaws import (
    DEMOTE,
    FROM_START,
    NEW_STEP,
    PROMOTE,
    REUSE,
    SEPARATE,
    _UNBOUND,
    detect_new_threats,
    enumerate_open_repairs,
    enumerate_repairs,
    enumerate_threat_repairs,
    has_any_repair,
    rederive_open_repairs,
    refresh_agenda,
    refresh_flaw,
    threat_ordering,
)
from poclab.plan import (
    GOAL_ID,
    NONSEPARABLE,
    OPEN,
    SEPARABLE,
    START_ID,
    CausalLink,
    Flaw,
    PartialPlan,
    Step,
    instantiate_step,
    make_skeletal_plan,
)
from poclab.search import SearchConfig, parse_rank, plan_search, refinements
from poclab.strategies import RepairTable, builtin
from poclab.terms import EMPTY_STORE, const, lit, unify, var
from helpers import (
    EveryNode,
    forced_complementary,
    plan_with,
    reference_threat_repairs,
    separable_threat_fixture,
    small_domains,
    store_diff_delta,
    threat_domains,
    unfiltered_threats,
)

A, B = const("A"), const("B")
x, y, z = var("?x", 100), var("?y", 101), var("?z", 102)
t, u, v = var("?t", 103), var("?u", 104), var("?v", 105)


def test_separable_threat_has_five_repairs():
    plan, flaw = separable_threat_fixture()
    repairs = enumerate_threat_repairs(plan, flaw)
    kinds = [r.kind for r in repairs]
    assert kinds == [PROMOTE, DEMOTE, SEPARATE, SEPARATE, SEPARATE]
    assert [r.pair for r in repairs if r.kind == SEPARATE] == [(x, t), (y, u), (z, v)]


def test_separations_skip_forced_equal_positions():
    plan, flaw = separable_threat_fixture()
    bound = plan.bindings.merge(x, t)
    plan2 = PartialPlan(plan.steps, plan.links, plan.orderings, bound, plan.agenda)
    repairs = enumerate_threat_repairs(plan2, flaw)
    assert [r.pair for r in repairs if r.kind == SEPARATE] == [(y, u), (z, v)]


def test_duplicate_argument_pairs_collapse():
    link = CausalLink(2, lit("Q", u, u, positive=False), 3)
    producer = Step(2, "p", (), (), (lit("Q", u, u, positive=False),))
    consumer = Step(3, "c", (), (), ())
    threat_step = Step(4, "th", (), (), (lit("Q", x, x),))
    plan = plan_with(steps=(producer, consumer, threat_step), links=(link,), order_pairs=((2, 3),))
    flaw = Flaw(SEPARABLE, 4, lit("Q", x, x), link, inserted_at=1)
    repairs = enumerate_threat_repairs(plan, flaw)
    assert [r.kind for r in repairs] == [PROMOTE, DEMOTE, SEPARATE]

    def separations(effect, condition, bindings):
        link = CausalLink(2, condition, 3)
        node = plan_with(
            steps=(Step(2, "p", (), (), (condition,)), consumer, Step(4, "th", (), (), (effect,))),
            links=(link,), order_pairs=((2, 3),), bindings=bindings,
        )
        flaw = Flaw(SEPARABLE, 4, effect, link, inserted_at=1)
        got = enumerate_threat_repairs(node, flaw)
        assert got == reference_threat_repairs(node, flaw)
        return [r.pair for r in got if r.kind == SEPARATE]

    # the same two representatives the other way round collapse too
    assert separations(lit("Q", x, y), lit("Q", y, x, positive=False), EMPTY_STORE) == [(x, y)]
    # (Q ?x ?x) against (Q A ?y): two pairs until ?y is bound to A
    assert separations(lit("Q", x, x), lit("Q", A, y, positive=False), EMPTY_STORE) == [(x, A), (x, y)]
    assert separations(lit("Q", x, x), lit("Q", A, y, positive=False), EMPTY_STORE.merge(y, A)) == [(x, A)]


def test_nonseparable_repair_counts():
    def ground_fixture(order_pairs):
        producer = Step(2, "p", (), (), (lit("g", A),))
        consumer = Step(3, "c", (), (), ())
        threat_step = Step(4, "th", (), (), (lit("g", A, positive=False),))
        link = CausalLink(2, lit("g", A), 3)
        plan = plan_with(
            steps=(producer, consumer, threat_step), links=(link,),
            order_pairs=((2, 3),) + order_pairs,
        )
        return plan, Flaw(NONSEPARABLE, 4, lit("g", A, positive=False), link, inserted_at=1)

    plan, flaw = ground_fixture(())
    assert [r.kind for r in enumerate_threat_repairs(plan, flaw)] == [PROMOTE, DEMOTE]

    plan, flaw = ground_fixture(((4, 3),))  # promotion (3 before 4) now cyclic
    assert [r.kind for r in enumerate_threat_repairs(plan, flaw)] == [DEMOTE]

    plan, flaw = ground_fixture(((4, 3), (2, 4)))  # strictly inside the span
    assert enumerate_threat_repairs(plan, flaw) == []
    assert not has_any_repair(plan, flaw, bundled("blocks")[0])


@pytest.mark.parametrize("domain, problem", [("blocks", "invert4"), ("tileworld", "tileworld-3")])
def test_threat_ordering_is_the_pair_the_enumeration_tests(domain, problem):
    """enumerate_threat_repairs reads promotion and demotion off the
    ordering bits; on every threat of every expanded node it offers
    each one iff with_ordering accepts threat_ordering's pair for it,
    the pair refinement and the dmin test order."""
    dom, probs = bundled(domain)
    prob = next(p for p in probs if p.name == problem)
    seen = Counter()

    class Check:
        def on_expand(self, node, flaw, children):
            for f in node.agenda:
                if f.kind == OPEN:
                    continue
                offered = {r.kind for r in enumerate_threat_repairs(node, f)}
                for kind in (PROMOTE, DEMOTE):
                    accepted = node.orderings.with_ordering(*threat_ordering(f, kind)) is not None
                    assert (kind in offered) == accepted, f"{kind} of {f}"
                    seen[kind, accepted] += 1

    plan_search(dom, prob, builtin("UCPOP"), SearchConfig(node_limit=2000, systematic=True), Check())
    assert all(seen[kind, accepted] for kind in (PROMOTE, DEMOTE) for accepted in (False, True)), seen


def test_a_producer_threatens_its_negative_link_only_by_adding():
    # deletes apply before adds, so flip's (u ?x) undoes its own
    # (not (u ?x)); its other delete is the link's own sign
    flip = Step(2, "flip", (), (), (lit("u", x), lit("u", x, positive=False), lit("u", y, positive=False)))
    consumer = Step(3, "use", (), (lit("u", x, positive=False),), ())
    link = CausalLink(2, lit("u", x, positive=False), 3)
    plan = plan_with(steps=(flip, consumer), links=(link,), order_pairs=((2, 3),))
    for systematic in (False, True):
        found = detect_new_threats(plan, None, link, systematic)
        assert [(k, s, e) for k, s, e, _ in found] == [(NONSEPARABLE, 2, lit("u", x))]
    # neither promotion nor demotion can move a step off its own link
    assert enumerate_threat_repairs(plan, Flaw(NONSEPARABLE, 2, lit("u", x), link, inserted_at=1)) == []
    other = CausalLink(2, lit("u", y, positive=False), 3)
    flaw = Flaw(SEPARABLE, 2, lit("u", x), other, inserted_at=1)
    assert [r.kind for r in enumerate_threat_repairs(plan, flaw)] == [SEPARATE]

    # a positive link survives its producer's deletes
    positive = CausalLink(2, lit("u", x), 3)
    plan = plan_with(steps=(flip, consumer), links=(positive,), order_pairs=((2, 3),))
    for systematic in (False, True):
        assert detect_new_threats(plan, None, positive, systematic) == []


def test_detection_separable_vs_nonseparable_vs_span():
    link = CausalLink(2, lit("at", z), 3)
    producer = Step(2, "go-tile", (), (), (lit("at", z),))
    consumer = Step(3, "pickup", (), (lit("at", z),), ())
    mover = Step(4, "go-hole", (), (), (lit("at", x, positive=False),))
    plan = plan_with(steps=(producer, consumer, mover), links=(link,), order_pairs=((2, 3),))
    found = detect_new_threats(plan, plan.steps[4], None)
    assert [(k, s) for k, s, _, _ in found] == [(SEPARABLE, 4)]

    clobber = Step(4, "clobber", (), (), (lit("clear", B, positive=False),))
    glink = CausalLink(2, lit("clear", B), 3)
    gproducer = Step(2, "p", (), (), (lit("clear", B),))
    plan2 = plan_with(steps=(gproducer, consumer, clobber), links=(glink,), order_pairs=((2, 3),))
    found2 = detect_new_threats(plan2, plan2.steps[4], None)
    assert [(k, s) for k, s, _, _ in found2] == [(NONSEPARABLE, 4)]

    # ordered after the consumer: outside the span, no threat
    plan3 = plan_with(steps=(gproducer, consumer, clobber), links=(glink,), order_pairs=((2, 3), (3, 4)))
    assert detect_new_threats(plan3, plan3.steps[4], None) == []


def test_a_link_is_never_threatened_by_its_consumer():
    producer = Step(2, "p", (), (), (lit("g", x),))
    consumer = Step(3, "c", (lit("g", x),), (), (lit("g", y, positive=False),))
    link = CausalLink(2, lit("g", x), 3)
    plan = plan_with(steps=(producer, consumer), links=(link,), order_pairs=((2, 3),))
    for systematic in (False, True):
        assert unfiltered_threats(plan, plan.steps[3], link, systematic) == []
        assert detect_new_threats(plan, plan.steps[3], None, systematic) == []
        assert detect_new_threats(plan, None, link, systematic) == []


def test_detection_scans_new_link_against_existing_steps():
    clobber = Step(2, "old", (), (), (lit("g", A, positive=False),))
    producer = Step(3, "p", (), (), (lit("g", A),))
    consumer = Step(4, "c", (), (), ())
    link = CausalLink(3, lit("g", A), 4)
    plan = plan_with(steps=(clobber, producer, consumer), links=(link,), order_pairs=((3, 4),))
    found = detect_new_threats(plan, None, link)
    assert [(k, s) for k, s, _, _ in found] == [(NONSEPARABLE, 2)]
    # the producer itself is never its own threat
    assert all(s != 3 for _, s, _, _ in found)


def test_same_sign_threats_only_in_systematic_mode():
    producer = Step(2, "p", (), (), (lit("g", x),))
    consumer = Step(3, "c", (), (), ())
    rival = Step(4, "r", (), (), (lit("g", y),))
    link = CausalLink(2, lit("g", x), 3)
    plan = plan_with(steps=(producer, consumer, rival), links=(link,), order_pairs=((2, 3),))
    assert detect_new_threats(plan, plan.steps[4], None, systematic=False) == []
    found = detect_new_threats(plan, plan.steps[4], None, systematic=True)
    assert [(k, s) for k, s, _, _ in found] == [(SEPARABLE, 4)]


class ThreatsChecked:
    """Search observer: every establishing child of the search is
    re-detected with systematic off and on, whatever the search used,
    and must give the unfiltered reference's threats in its order.
    Counts the threats found in each mode, those of a producer against
    its own link, and those of a 0-ary condition."""

    def __init__(self):
        self.found = Counter()

    def on_expand(self, plan, flaw, children):
        for child in children:
            if len(child.links) == len(plan.links):
                continue  # a threat repair adds no link and detects nothing
            new_step = child.steps[-1] if len(child.steps) > len(plan.steps) else None
            for systematic in (False, True):
                want = unfiltered_threats(child, new_step, child.links[-1], systematic)
                assert detect_new_threats(child, new_step, child.links[-1], systematic) == want
                self.found[systematic] += len(want)
                self.found["own"] += sum(s == link.producer for _, s, _, link in want)
                self.found["0-ary"] += sum(not link.condition.args for _, _, _, link in want)


@pytest.mark.parametrize(
    "domain, problem, strategy",
    [("tileworld", "tileworld-2", "UCPOP"), ("briefcase", "get-paid-bc-at-work", "DSep")],
)
def test_threat_detection_equals_the_unfiltered_reference(domain, problem, strategy):
    # the predicate, sign and span filters must drop only pairs the
    # unfiltered scan finds nothing in, and keep the order
    dom, probs = bundled(domain)
    prob = next(p for p in probs if p.name == problem)
    obs = ThreatsChecked()
    plan_search(dom, prob, builtin(strategy), SearchConfig(rank=parse_rank("S+OC+UC"), node_limit=2000), obs)
    assert obs.found[False] > 100 and obs.found[True] > obs.found[False]


# toggle adds and deletes one atom, so its own add threatens the negative
# link its delete establishes (drop keeps the problem solvable); (z) is
# 0-ary, so a threat to a (z) link reaches the union kernel with no
# argument pair.
_SELF_AND_NULLARY = parse_domain(
    "(define (domain flip) (:predicates (u ?x) (b ?x ?y) (z))"
    " (:operator toggle :parameters (?x) :precondition (and (z)) :effect (and (u ?x) (not (u ?x)) (not (z))))"
    " (:operator rest :parameters (?x ?y) :precondition (and (u ?x)) :effect (and (z) (b ?x ?y)))"
    " (:operator clear :parameters (?x ?y) :precondition (and (b ?x ?y) (not (u ?y)))"
    " :effect (and (not (b ?y ?x)) (z)))"
    " (:operator drop :parameters (?x) :precondition (and (b ?x ?x)) :effect (and (not (u ?x)))))"
)
_SELF_AND_NULLARY_PROBLEM = parse_problem(
    "(define (problem flip-1) (:domain flip) (:objects A B) (:init (z) (u B))"
    " (:goal (and (b A B) (not (u B)) (z))))",
    _SELF_AND_NULLARY,
)


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
@pytest.mark.parametrize("name", ["UCPOP", "LCFR", "ZLIFO"])
def test_threat_detection_equals_the_unfiltered_reference_on_self_and_0_ary_threats(name, systematic):
    obs = ThreatsChecked()
    config = SearchConfig(node_limit=300, systematic=systematic)
    plan_search(_SELF_AND_NULLARY, _SELF_AND_NULLARY_PROBLEM, builtin(name), config, obs)
    assert obs.found["own"] and obs.found["0-ary"]


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_domains(), threat_domains()), st.sampled_from(["UCPOP", "LCFR", "ZLIFO"]), st.booleans())
def test_threat_detection_equals_the_unfiltered_reference_on_random_domains(case, name, systematic):
    dom, prob = case
    plan_search(dom, prob, builtin(name), SearchConfig(node_limit=150, systematic=systematic), ThreatsChecked())


@contextmanager
def threat_repairs_checked():
    """While active, every threat on a popped node's refreshed agenda
    must get from enumerate_threat_repairs the reference's repairs, in
    its order.  Yields counts of the threats checked and of the
    separable ones whose argument pairs named one pair of
    representatives more than once, so that separations collapsed."""
    log = Counter()
    refresh = search.refresh_agenda

    def checked(plan, delta=None):
        node = refresh(plan, delta)
        for f in node.agenda:
            if f.kind == OPEN:
                continue
            want = reference_threat_repairs(node, f)
            assert enumerate_threat_repairs(node, f) == want, f
            log["threats"] += 1
            if f.kind == SEPARABLE:
                pairs = zip(f.literal.args, f.link.condition.args)
                unforced = sum(node.bindings.find(a) != node.bindings.find(b) for a, b in pairs)
                log["collapsed"] += sum(r.kind == SEPARATE for r in want) < unforced
        return node

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "refresh_agenda", checked)
        yield log


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
@pytest.mark.parametrize("name", ["UCPOP", "LCFR"])
@pytest.mark.parametrize(
    "domain, problem",
    [("blocks", "sussman"), ("briefcase", "get-paid-bc-at-work"), ("tileworld", "tileworld-3")],
)
def test_threat_repairs_equal_the_reference(domain, problem, name, systematic):
    dom, probs = bundled(domain)
    prob = next(p for p in probs if p.name == problem)
    with threat_repairs_checked() as log:
        plan_search(dom, prob, builtin(name), SearchConfig(node_limit=1000, systematic=systematic))
    assert log["threats"]


# wipe deletes (p ?x ?x) and leaves ?x free, so against a (p B B) link its
# two argument pairs name the same two representatives and must give one
# separation; swap's (not (p ?x ?y)) meets (p ?y ?x) links the other way
# round.
_REPEATS = parse_domain(
    "(define (domain dup) (:predicates (p ?x ?y) (q ?x) (r ?x))"
    " (:operator mark :parameters (?x ?y) :precondition (and (q ?x) (q ?y)) :effect (and (p ?x ?y)))"
    " (:operator wipe :parameters (?x ?z) :precondition (and (q ?z)) :effect (and (not (p ?x ?x)) (r ?z)))"
    " (:operator swap :parameters (?x ?y) :precondition (and (p ?y ?x)) :effect (and (not (p ?x ?y)) (r ?x))))"
)
_REPEATS_PROBLEM = parse_problem(
    "(define (problem dup-1) (:domain dup) (:objects A B) (:init (q A) (q B))"
    " (:goal (and (p B B) (r A) (p A B))))",
    _REPEATS,
)


@pytest.mark.parametrize("systematic", [False, True], ids=["plain", "systematic"])
@pytest.mark.parametrize("name", ["UCPOP", "LCFR", "ZLIFO"])
def test_threat_repairs_equal_the_reference_where_separations_collapse(name, systematic):
    with threat_repairs_checked() as log:
        plan_search(_REPEATS, _REPEATS_PROBLEM, builtin(name), SearchConfig(node_limit=300, systematic=systematic))
    assert log["collapsed"]


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_domains(), threat_domains()), st.sampled_from(["UCPOP", "LCFR", "ZLIFO"]), st.booleans())
def test_threat_repairs_equal_the_reference_on_random_domains(case, name, systematic):
    dom, prob = case
    with threat_repairs_checked():
        plan_search(dom, prob, builtin(name), SearchConfig(node_limit=150, systematic=systematic))


MINI2 = parse_domain(
    """
(define (domain mini2)
  (:predicates (on ?x ?y) (have ?x) (unseen ?x))
  (:operator stack
    :parameters (?x ?y)
    :precondition (and (have ?x))
    :effect (and (on ?x ?y))))
"""
)


def test_open_repair_categories_and_cost():
    prob = parse_problem(
        "(define (problem m) (:domain mini2) (:objects A B)"
        " (:init (on A B)) (:goal (and (on A B))))",
        MINI2,
    )
    plan = make_skeletal_plan(MINI2, prob)
    flaw = plan.agenda[0]
    repairs = enumerate_open_repairs(plan, flaw, MINI2)
    assert [r.kind for r in repairs] == [FROM_START, NEW_STEP]  # I=1, S=0, N=1
    assert RepairTable(plan, MINI2).cost(flaw) == 2 == len(repairs)


def test_open_repair_excludes_steps_ordered_after_consumer():
    producer = Step(2, "stack", (), (), (lit("on", A, B),))
    consumer = Step(3, "needs", (), (lit("on", A, B),), ())
    open_flaw = Flaw(OPEN, 3, lit("on", A, B), None, inserted_at=0)
    base = plan_with(steps=(producer, consumer), agenda=(open_flaw,))
    repairs = enumerate_open_repairs(base, open_flaw, MINI2)
    assert [r.kind for r in repairs] == [REUSE, NEW_STEP]

    after = plan_with(steps=(producer, consumer), order_pairs=((3, 2),), agenda=(open_flaw,))
    repairs = enumerate_open_repairs(after, open_flaw, MINI2)
    assert [r.kind for r in repairs] == [NEW_STEP]  # candidate producer excluded from S


def test_unmatchable_open_is_a_dead_end():
    prob = parse_problem(
        "(define (problem m) (:domain mini2) (:objects A)"
        " (:init) (:goal (and (unseen A))))",
        MINI2,
    )
    plan = make_skeletal_plan(MINI2, prob)
    assert enumerate_open_repairs(plan, plan.agenda[0], MINI2) == []
    assert RepairTable(plan, MINI2).cost(plan.agenda[0]) == 0
    assert not has_any_repair(plan, plan.agenda[0], MINI2)


def test_negative_open_closed_world():
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
        "(define (problem n) (:domain neg) (:objects A B)"
        " (:init (p A)) (:goal (and (not (p B)) (not (p A)))))",
        dom,
    )
    plan = make_skeletal_plan(dom, prob)
    absent, present = plan.agenda
    assert str(absent.literal) == "(not (p B))"
    # (p B) is absent from the initial state: closed world provides it, plus del-p
    assert [r.kind for r in enumerate_open_repairs(plan, absent, dom)] == [FROM_START, NEW_STEP]
    # (p A) holds initially: only the explicit deleter can establish
    assert [r.kind for r in enumerate_open_repairs(plan, present, dom)] == [NEW_STEP]
    # a lifted one holds by the closed world only once (p A) cannot match it
    lifted = Flaw(OPEN, GOAL_ID, lit("p", x, positive=False), None, inserted_at=9)
    with_lifted = PartialPlan(plan.steps, plan.links, plan.orderings, plan.bindings, (lifted,))
    assert [r.kind for r in enumerate_open_repairs(with_lifted, lifted, dom)] == [NEW_STEP]
    apart = replace(with_lifted, bindings=plan.bindings.require_distinct(x, A))
    assert [r.kind for r in enumerate_open_repairs(apart, lifted, dom)] == [FROM_START, NEW_STEP]


def test_refresh_vanish_reclassify_and_live():
    plan, flaw = separable_threat_fixture()
    assert refresh_flaw(plan, flaw) is flaw  # still live, still separable

    blocked = plan.bindings.require_distinct(x, t)
    p2 = PartialPlan(plan.steps, plan.links, plan.orderings, blocked, plan.agenda)
    assert refresh_flaw(p2, flaw) is None  # its only unifier is blocked

    forced = plan.bindings.merge(x, t).merge(y, u).merge(z, v)
    p3 = PartialPlan(plan.steps, plan.links, plan.orderings, forced, plan.agenda)
    refreshed = refresh_flaw(p3, flaw)
    assert refreshed is not None and refreshed.kind == NONSEPARABLE
    assert refreshed.inserted_at == flaw.inserted_at

    # an independent ordering that imposes promotion makes it vanish
    promoted = plan.orderings.with_ordering(3, 4)
    p4 = PartialPlan(plan.steps, plan.links, promoted, plan.bindings, plan.agenda)
    assert refresh_flaw(p4, flaw) is None


def test_refresh_agenda_counts_and_identity():
    plan, flaw = separable_threat_fixture()
    with_agenda = PartialPlan(plan.steps, plan.links, plan.orderings, plan.bindings, (flaw,))
    assert refresh_agenda(with_agenda) is with_agenda
    blocked = plan.bindings.require_distinct(x, t)
    p2 = PartialPlan(plan.steps, plan.links, plan.orderings, blocked, (flaw,))
    refreshed = refresh_agenda(p2)
    assert refreshed.agenda == ()


def test_cached_cost_survives_plan_changes():
    producer = Step(2, "stack", (), (), (lit("on", A, B),))
    consumer = Step(3, "needs", (), (lit("on", A, B),), ())
    open_flaw = Flaw(OPEN, 3, lit("on", A, B), None, inserted_at=0, cached_cost=2)
    base = plan_with(steps=(producer, consumer), agenda=(open_flaw,))
    assert RepairTable(base, MINI2).cost(open_flaw) == 2
    # order the reuse candidate away: exact cost drops, cached does not
    moved = plan_with(steps=(producer, consumer), order_pairs=((3, 2),), agenda=(open_flaw,))
    assert RepairTable(moved, MINI2).cost(open_flaw) == 1
    assert RepairTable(moved, MINI2).cost(open_flaw, cached=True) == 2


def test_open_cost_can_increase_when_steps_arrive():
    dom = parse_domain(
        """
(define (domain sym)
  (:predicates (on ?x ?y) (have ?x))
  (:operator swap
    :parameters (?x ?y)
    :precondition (and (have ?x))
    :effect (and (on ?x ?y) (on ?y ?x))))
"""
    )
    prob = parse_problem(
        "(define (problem m) (:domain sym) (:objects A B)"
        " (:init (have A)) (:goal (and (on A B) (on B A))))",
        dom,
    )
    plan = make_skeletal_plan(dom, prob)
    first, second = plan.agenda
    before = RepairTable(plan, dom).cost(second)  # two fresh swap effects unify
    child, _ = refinements(plan, first, dom)[0]  # establish (on A B) by a new swap
    assert child.n_steps == 1
    # the new step's second effect is now ground (on B A): reuse appears
    after = RepairTable(child, dom).cost(second)
    assert after == before + 1


def test_threat_cost_never_exceeds_two_for_nonseparable():
    dom, probs = bundled("blocks")

    class Obs(EveryNode):
        def visit(self, plan):
            for f in plan.agenda:
                live = refresh_flaw(plan, f)
                if live is not None and live.kind == NONSEPARABLE:
                    assert len(enumerate_threat_repairs(plan, live)) <= 2

    out = plan_search(dom, probs[0], builtin("UCPOP"), SearchConfig(node_limit=1500), observer=Obs())


def test_classification_tracks_forced_complementary():
    dom, probs = bundled("tileworld")

    class Obs:
        def __init__(self):
            self.seen = 0

        def on_expand(self, plan, flaw, children):
            for f in plan.agenda:
                if f.kind != OPEN and f.literal.positive != f.link.condition.positive:
                    forced = forced_complementary(f.literal, f.link.condition, plan.bindings)
                    assert (f.kind == NONSEPARABLE) == forced
                    self.seen += 1

    obs = Obs()
    plan_search(dom, probs[1], builtin("DSep"), SearchConfig(node_limit=1500), observer=obs)
    assert obs.seen > 50


def test_exact_cost_equals_enumeration_everywhere():
    dom, probs = bundled("briefcase")

    class Obs:
        def __init__(self):
            self.samples = 0

        def on_expand(self, plan, flaw, children):
            for f in plan.agenda[:3]:
                live = refresh_flaw(plan, f)
                if live is not None:
                    assert RepairTable(plan, dom).cost(f) == len(enumerate_repairs(plan, live, dom))
                    self.samples += 1

    obs = Obs()
    plan_search(dom, probs[0], builtin("LCFR"), SearchConfig(node_limit=800), observer=obs)
    assert obs.samples > 40


def test_domain_establishers_index_every_distinct_effect():
    for name in bundled_names():
        dom = bundled(name)[0]
        index = dom.establishers
        assert dom.establishers is index  # built once per domain
        keys = {(e.pred, e.positive) for op in dom.operators for e in op.effects}
        assert set(index) == keys
        for key in keys:
            assert index[key] == tuple(
                (op, i, eff)
                for op in dom.operators
                for i, eff in enumerate(dict.fromkeys(op.effects))
                if (eff.pred, eff.positive) == key
            )
        for cands in index.values():
            for op, i, eff in cands:  # the index a new step's effects use
                step = instantiate_step(op, 2, count(1000))
                assert (step.effects[i].pred, step.effects[i].positive) == (eff.pred, eff.positive)
        one = replace(dom, operators=dom.operators[:1])
        assert one.establishers is not index
        assert {op for cands in one.establishers.values() for op, _, _ in cands} == {dom.operators[0]}


def test_always_establishable_keys_have_an_establisher_free_of_constants_and_repeats():
    dom = parse_domain(
        "(define (domain k) (:predicates (at ?x ?y) (free ?x) (b ?x ?y))"
        " (:operator park :parameters (?c ?s) :precondition (and (free ?s))"
        " :effect (and (at ?c ?s) (not (free ?s)) (not (at ?c HOME)) (free HOME) (b ?c ?c)))"
        " (:operator lift :parameters (?x ?y) :precondition (and (at ?x ?y)) :effect (and (not (at ?x ?y)))))"
    )
    keys = dom.always_establishable
    # (free HOME) has a constant and (b ?c ?c) a repeated parameter; (not
    # (at ?c HOME)) has a constant too, but lift's (not (at ?x ?y)) is free
    assert keys == {("at", True), ("free", False), ("at", False)}
    assert keys <= set(dom.establishers)
    assert dom.always_establishable is keys  # built once per domain
    for name in bundled_names():
        bundled_dom = bundled(name)[0]
        assert bundled_dom.always_establishable == set(bundled_dom.establishers)
    back = pickle.loads(pickle.dumps(dom))
    assert back.always_establishable == keys and back.establishers == dom.establishers


def test_init_repairs_read_each_plans_own_start_step():
    # Two problems of one domain, enumerated alternately, over the root
    # plan and its children: the children's preconditions unify with
    # start effects, and the two problems' initial states differ.
    def nodes(dom, prob):
        root = make_skeletal_plan(dom, prob)
        return [root] + [c for f in root.agenda for c, _ in refinements(root, f, dom)]

    for domain, names in (
        ("tileworld", ("tileworld-1", "tileworld-4")),
        ("blocks", ("sussman", "tower4")),
        ("briefcase", ("get-paid", "get-paid-bc-at-work")),
    ):
        dom, probs = bundled(domain)
        pair = [nodes(dom, next(p for p in probs if p.name == n)) for n in names]
        assert pair[0][0].steps[START_ID].effects != pair[1][0].steps[START_ID].effects
        seen = 0
        for plans in zip(*pair):
            for plan in plans:
                start = plan.steps[START_ID].effects
                for f in plan.agenda:
                    if f.kind != OPEN:
                        continue
                    got = [r for r in enumerate_open_repairs(plan, f, dom) if r.kind == FROM_START]
                    cond = f.literal
                    if cond.positive:
                        want = [e for e in start if unify(cond, e, plan.bindings) is not None]
                        assert [r.effect for r in got] == want
                        seen += len(want)
                    else:
                        atom = cond.negated()
                        holds = all(unify(atom, e, plan.bindings) is None for e in start)
                        assert [r.effect for r in got] == ([None] if holds else [])
        assert seen > 0


# ---------------------------------------------------------------------------
# the refinement delta

# `use` needs (p ?w), (q ?x) and (r ?y ?z).  (p ?w) has one establisher,
# a library schema with a constant; (q ?x) only the initial (q K); and
# (r ?y ?z) a schema with a repeated parameter.
_DELTAS = parse_domain(
    """
(define (domain deltas)
  (:predicates (p ?a) (q ?a) (r ?a ?b) (done))
  (:operator mk :parameters () :precondition (and) :effect (and (p K)))
  (:operator twin :parameters (?a) :precondition (and) :effect (and (r ?a ?a)))
  (:operator use :parameters (?w ?x ?y ?z)
    :precondition (and (p ?w) (q ?x) (r ?y ?z)) :effect (and (done))))
"""
)
_DELTAS_PROBLEM = parse_problem(
    "(define (problem d) (:domain deltas) (:objects K) (:init (q K)) (:goal (and (done))))", _DELTAS
)
K = const("K")


def _use_step_plan(distinct=False):
    """The plan that establishes (done) by a new `use` step, its open
    conditions by predicate, and the step's parameters; with `distinct`,
    ?w and ?x are kept apart."""
    root = make_skeletal_plan(_DELTAS, _DELTAS_PROBLEM)
    plan, _ = refinements(root, root.agenda[0], _DELTAS)[0]
    params = plan.steps[2].params
    if distinct:
        plan = replace(plan, bindings=plan.bindings.require_distinct(params[0], params[1]))
    return plan, {f.literal.pred: f for f in plan.agenda}, params


def _deltas(plan, flaw, dom):
    """(repair, child, delta) for each repair of `flaw`, as refinements
    makes them."""
    children = refinements(plan, flaw, dom)
    return [(r, c, d) for r, (c, d) in zip(enumerate_repairs(plan, flaw, dom), children, strict=True)]


def test_threat_repair_deltas():
    """Promotion and demotion rebind nothing and share one record; a
    separation rebinds the parent representatives of its pair."""
    plan, flaw = separable_threat_fixture()
    plan = replace(plan, bindings=plan.bindings.merge(y, x), agenda=(flaw,))  # ?y's class is led by ?x
    made = _deltas(plan, flaw, MINI2)
    got = [(r.kind, d.reordered, d.step_added, d.rebound) for r, _, d in made]
    assert got == [
        (PROMOTE, True, False, set()),
        (DEMOTE, True, False, set()),
        (SEPARATE, False, False, {x, t}),
        (SEPARATE, False, False, {x, u}),
        (SEPARATE, False, False, {z, v}),
    ]
    assert made[0][2] is made[1][2] is _UNBOUND[True, False]


def test_reuse_rebinds_the_union_leaders_and_a_fresh_step_nothing():
    """Reusing (on ?t ?u) for (on ?x ?y) merges two classes of the
    parent into ?x's and ?y's.  A new stack step binds only its fresh
    parameters, so its delta is the shared unbound record, although the
    store diff sees ?x's and ?y's classes grow."""
    producer = Step(2, "stack", (), (), (lit("on", t, u),))
    consumer = Step(3, "needs", (), (lit("on", x, y),), ())
    flaw = Flaw(OPEN, 3, lit("on", x, y), None, inserted_at=0)
    plan = plan_with(steps=(producer, consumer), agenda=(flaw,))
    (reuse, _, reused), (new, child, fresh) = _deltas(plan, flaw, MINI2)
    assert (reuse.kind, reused.reordered, reused.step_added, reused.rebound) == (REUSE, True, False, {x, y})
    assert new.kind == NEW_STEP and fresh is _UNBOUND[True, True]
    assert store_diff_delta(plan, child).rebound == {x, y}


def test_a_new_step_that_binds_only_its_fresh_parameters_lets_the_refresh_skip_unification(monkeypatch):
    """A new stack step establishes (on ?x ?y) by binding its fresh
    parameters to ?x and ?y.  The child's store is a new object, yet no
    term of the parent changed class, so the delta is the shared unbound
    record, and the refresh re-tests the inherited threat's span but
    never classifies it, with the result of the full re-test."""
    producer = Step(2, "p", (), (), (lit("on", t, u),))
    consumer = Step(3, "c", (), (lit("on", t, u), lit("on", x, y)), ())
    rival = Step(4, "r", (), (), (lit("on", x, y, positive=False),))
    link = CausalLink(2, lit("on", t, u), 3)
    threat = Flaw(SEPARABLE, 4, lit("on", x, y, positive=False), link, inserted_at=1)
    need = Flaw(OPEN, 3, lit("on", x, y), None, inserted_at=0)
    plan = plan_with(steps=(producer, consumer, rival), links=(link,), order_pairs=((2, 3),), agenda=(need, threat))
    (reused, _), (child, delta) = refinements(plan, need, MINI2)
    assert reused.steps == plan.steps and child.steps[-1].name == "stack"
    assert child.bindings is not plan.bindings and delta is _UNBOUND[True, True]
    assert threat in child.agenda
    classified = []
    threat_kind = flaws._threat_kind

    def counted(effect, condition, store, systematic):
        classified.append((effect, condition))
        return threat_kind(effect, condition, store, systematic)

    monkeypatch.setattr(flaws, "_threat_kind", counted)
    got = refresh_agenda(child, delta)
    assert not classified
    assert got == refresh_agenda(child)
    assert (threat.literal, link.condition) in classified  # the full re-test classifies it


def test_establishment_deltas_rebind_each_merged_class_of_the_parent():
    """The initial (q K) and the schema constant of mk's (p K) each bind
    a parameter of `use` to K; twin's repeated parameter merges ?y's
    class with ?z's, and the merged class is led by ?y."""
    plan, opens, (w, xx, yy, zz) = _use_step_plan()
    def got(open_):
        return [(r.kind, d.reordered, d.step_added, d.rebound) for r, _, d in _deltas(plan, open_, _DELTAS)]

    assert got(opens["q"]) == [(FROM_START, False, False, {K})]
    assert got(opens["p"]) == [(NEW_STEP, True, True, {K})]
    assert yy.vid < zz.vid
    assert got(opens["r"]) == [(NEW_STEP, True, True, {yy})]


def test_a_rewritten_disequality_rebinds_both_its_ends():
    """With ?w kept apart from ?x, establishing (q ?x) from the initial
    (q K) rewrites the disequality to ?w != K, so mk's (p K) no longer
    establishes (p ?w).  The delta rebinds ?w as well as K; a delta of
    the union's leaders alone would leave the stale repair in the list."""
    plan, opens, (w, _, _, _) = _use_step_plan(distinct=True)
    inherited = enumerate_open_repairs(plan, opens["p"], _DELTAS)
    assert [(r.kind, r.operator.name, r.effect_index) for r in inherited] == [(NEW_STEP, "mk", 0)]
    [(repair, child, delta)] = _deltas(plan, opens["q"], _DELTAS)
    assert repair.kind == FROM_START and delta.rebound == {K, w}
    row = plan.orderings.succ[opens["p"].step]
    assert rederive_open_repairs(child, opens["p"], inherited, row, delta) == []
    assert enumerate_repairs(child, opens["p"], _DELTAS) == []
    leaders = replace(delta, rebound=frozenset({K}))
    assert rederive_open_repairs(child, opens["p"], inherited, row, leaders) == inherited
