"""Strategy DSL parsing, builtins, and flaw selection semantics."""

import random
import warnings
from dataclasses import replace

import pytest

from helpers import ZLIFO_ABLATIONS, plan_with
from poclab.domains import bundled, parse_domain, parse_problem
from poclab.flaws import enumerate_repairs
from poclab.plan import Flaw, make_skeletal_plan
from poclab.search import SearchConfig, plan_search
from poclab.strategies import (
    StrategyError,
    builtin,
    builtin_names,
    describe_builtins,
    exhaustiveness_witness,
    parse_strategy,
    select_flaw,
)
from poclab.terms import const, lit

A, B, C = const("A"), const("B"), const("C")


# ---------------------------------------------------------------------------
# parsing


def test_parse_ucpop_shape():
    s = parse_strategy("{n,s}LIFO / {o}LIFO")
    assert len(s.prefs) == 2
    assert s.prefs[0].types == ("n", "s")
    assert s.prefs[0].tiebreak == "LIFO"
    assert s.prefs[0].costs is None
    assert str(s) == "{n,s}LIFO / {o}LIFO"


def test_parse_single_preference_lcfr():
    s = parse_strategy("{o,n,s}LC")
    assert len(s.prefs) == 1
    assert s.prefs[0].tiebreak == "LC"


def test_parse_ranges():
    s = parse_strategy("{n,s}0 LIFO / {n,s}1 LIFO / {o}LIFO / {n,s}2-inf LIFO")
    assert [p.costs for p in s.prefs] == [(0, 0), (1, 1), None, (2, None)]
    assert str(s) == "{n,s}0 LIFO / {n,s}1 LIFO / {o}LIFO / {n,s}2-inf LIFO"


# a range that admits every cost still prints its range, and reads costs
ANY_COST = "{n,s}LIFO / {o}0-inf LIFO"
ZERO, ONE, TWO_UP = (0, 0), (1, 1), (2, None)
# each preference's cost range, and whether selection reads costs
PREFERENCE_COSTS = {
    "UCPOP": ([None, None], False),
    "UCPOP-LC": ([None, None], True),
    "DSep": ([None, None, None], False),
    "DSep-LC": ([None, None, None], True),
    "DSep-FIFO": ([None, None, None], False),
    "DUnf": ([ZERO, ONE, None, TWO_UP], True),
    "DUnf-LC": ([ZERO, ONE, None, TWO_UP], True),
    "DUnf-FIFO": ([ZERO, ONE, None, TWO_UP], True),
    "DUnf-Gen": ([ZERO, ONE, TWO_UP], True),
    "LCFR": ([None], True),
    "LCFR-DSep": ([None, None], True),
    "ZLIFO": ([None, ZERO, ONE, TWO_UP, None], True),
    "LIFO": ([None], False),
    "QLCFR": ([None], True),
    "Z-LC": ([None, ZERO, ONE, TWO_UP, None], True),
    "Z-noNew": ([None, ZERO, ONE, TWO_UP, None], True),
    "Z-noDelay": ([None, ZERO, ONE, TWO_UP], True),
    ANY_COST: ([None, (0, None)], True),
}


@pytest.mark.parametrize("name", [*builtin_names(), *ZLIFO_ABLATIONS, ANY_COST])
def test_preferences_round_trip_with_their_costs(name):
    if name in builtin_names():
        s = builtin(name)
    else:
        source = ZLIFO_ABLATIONS.get(name, name)
        s = parse_strategy(source)
        assert str(s) == source
    text = str(s)
    assert str(parse_strategy(text)) == text
    assert parse_strategy(text).prefs == s.prefs
    costs, reads = PREFERENCE_COSTS[name]
    assert [p.costs for p in s.prefs] == costs
    assert s.reads_costs is reads


def test_non_exhaustive_rejected_with_witness():
    with pytest.warns(UserWarning):
        # also triggers the New-without-cost-1 warning path
        pytest.raises(StrategyError, parse_strategy, "{n}0-1 New")
    with pytest.raises(StrategyError) as err:
        parse_strategy("{n}0-1 R")
    assert "open conditions uncovered" in str(err.value)
    with pytest.raises(StrategyError, match="nonseparable threats uncovered"):
        parse_strategy("{o}LIFO / {s}LIFO")
    with pytest.raises(StrategyError, match="repair cost 2"):
        parse_strategy("{o,n,s}0-1 LIFO")
    with pytest.raises(StrategyError, match="repair cost 3"):
        parse_strategy("{o,n,s}0-2 LIFO / {o,n,s}4-inf LIFO")


def test_exhaustiveness_witness_none_when_covered():
    s = parse_strategy("{o,n,s}0-5 R / {o,n,s}3-inf LIFO")
    assert exhaustiveness_witness(s.prefs) is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{x}LIFO", "flaw type"),
        ("{o,o}LIFO", "duplicate flaw type"),
        ("{o}SOMEDAY", "unknown tie-breaker"),
        ("{o}5-2 LIFO", "empty cost range"),
        ("{o}", "unexpected end"),
        ("o}LIFO", "expected '{'"),
        ("{o}LIFO & {n,s}LIFO", "unexpected character"),
        ("{o}2-x LIFO", "upper bound"),
    ],
)
def test_syntax_errors_have_positions(text, fragment):
    with pytest.raises(StrategyError) as err:
        parse_strategy(text)
    assert fragment in str(err.value)
    assert "column" in str(err.value)


@pytest.mark.parametrize(
    "new_pref,warns",
    [("{o}New", True), ("{o}0-1 New", True), ("{o}1-inf New", True), ("{o}1 New", False), ("{o}1-1 New", False)],
)
def test_new_tiebreak_warns_outside_cost_one(new_pref, warns):
    text = f"{new_pref} / {{o}}LIFO / {{n,s}}LIFO"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_strategy(text)
    assert [str(w.message) for w in caught] == ["'New' tie-breaking is only meaningful with cost range 1"] * warns


# ---------------------------------------------------------------------------
# builtins


def test_fourteen_builtins():
    assert len(builtin_names()) == 14
    assert set(builtin_names()) == {
        "UCPOP", "UCPOP-LC", "DSep", "DSep-LC", "DSep-FIFO",
        "DUnf", "DUnf-LC", "DUnf-FIFO", "DUnf-Gen",
        "LCFR", "LCFR-DSep", "ZLIFO", "LIFO", "QLCFR",
    }


def test_builtin_definitions():
    assert str(builtin("ZLIFO")) == "{n}LIFO / {o}0 LIFO / {o}1 New / {o}2-inf LIFO / {s}LIFO"
    assert str(builtin("DUnf-Gen")) == "{n,s,o}0 LIFO / {n,s,o}1 LIFO / {n,s,o}2-inf LIFO"
    assert str(builtin("LCFR-DSep")) == "{n,o}LC / {s}LC"
    assert str(builtin("UCPOP")) == "{n,s}LIFO / {o}LIFO"
    assert str(builtin("LIFO")) == "{o,n,s}LIFO"


def test_builtin_case_insensitive_and_unknown():
    assert builtin("zlifo").name == "ZLIFO"
    assert builtin("lcfr-dsep").name == "LCFR-DSep"
    with pytest.raises(KeyError, match=r"unknown strategy 'SNLP' \(have: UCPOP, UCPOP-LC, .*, LIFO, QLCFR\)"):
        builtin("SNLP")


def test_a_builtin_is_parsed_once_and_shared():
    assert builtin("lcfr") is builtin("LCFR")
    assert all(builtin(name.upper()) is builtin(name) for name in builtin_names())


def test_the_listing_prints_each_builtin_and_notes_cached_costs_alone():
    note = "   (repair costs cached for the root's goals only)"
    listing = describe_builtins()
    assert [name for name, _ in listing] == list(builtin_names())
    for name, text in listing:
        assert text == str(builtin(name)) + (note if name == "QLCFR" else "")


def test_qlcfr_is_cached_lcfr():
    q = builtin("QLCFR")
    assert q.cached_costs
    assert q.prefs == builtin("LCFR").prefs
    assert not builtin("LCFR").cached_costs
    listing = dict(describe_builtins())
    assert "cached" in listing["QLCFR"]


def test_reads_costs_follows_the_preferences():
    """A cost range, LC or New makes selection read costs; LIFO, FIFO
    and R alone do not."""
    readers = {name for name in builtin_names() if builtin(name).reads_costs}
    assert readers == {
        "UCPOP-LC", "DSep-LC", "DUnf", "DUnf-LC", "DUnf-FIFO", "DUnf-Gen",
        "LCFR", "LCFR-DSep", "ZLIFO", "QLCFR",
    }
    assert not parse_strategy("{n,s}LIFO / {o}R").reads_costs


# ---------------------------------------------------------------------------
# selection


MINI = parse_domain(
    """
(define (domain seltest)
  (:predicates (p ?x) (q ?x) (r ?x) (s0 ?x))
  (:operator mk-p
    :parameters (?x)
    :precondition (and (q ?x))
    :effect (and (p ?x)))
  (:operator mk-q
    :parameters (?x)
    :precondition (and (r ?x))
    :effect (and (q ?x))))
"""
)


def open_flaw(literal, stamp, step=1):
    return Flaw("o", step, literal, None, stamp)


def test_ucpop_prefers_threats():
    from helpers import separable_threat_fixture

    plan, threat = separable_threat_fixture()
    agenda = (open_flaw(lit("p", A), 1), threat)
    plan = plan_with(
        steps=plan.steps[2:], links=plan.links, order_pairs=((2, 3),), agenda=agenda
    )
    picked = select_flaw(builtin("UCPOP"), plan, MINI)
    assert picked is threat


def test_lcfr_takes_global_minimum_cost():
    # (p A): establishable by mk-p only -> cost 1; (s0 A): nothing -> 0;
    # (q A): init + mk-q -> cost 2
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A)"
        " (:init (q A)) (:goal (and (q A) (p A))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    q_flaw, p_flaw = plan.agenda
    assert select_flaw(builtin("LCFR"), plan, MINI) is p_flaw  # cost 1 beats cost 2


def test_lc_breaks_ties_by_lifo():
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A B)"
        " (:init) (:goal (and (p A) (p B))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    first, second = plan.agenda  # both cost 1
    assert select_flaw(builtin("LCFR"), plan, MINI) is second


def test_lifo_and_fifo():
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A B)"
        " (:init) (:goal (and (p A) (p B))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    first, second = plan.agenda
    assert select_flaw(builtin("LIFO"), plan, MINI) is second
    assert select_flaw(parse_strategy("{o,n,s}FIFO"), plan, MINI) is first


def test_random_tiebreak_is_seeded_and_requires_rng():
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A B)"
        " (:init) (:goal (and (p A) (p B))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    strategy = parse_strategy("{o,n,s}R")
    with pytest.raises(ValueError, match="rng"):
        select_flaw(strategy, plan, MINI)
    picks = [select_flaw(strategy, plan, MINI, random.Random(7)) for _ in range(5)]
    assert all(p is picks[0] for p in picks)
    seen = {id(select_flaw(strategy, plan, MINI, random.Random(s))) for s in range(30)}
    assert len(seen) == 2  # both flaws reachable across seeds


def test_new_prefers_sole_new_step_establisher():
    # (p A): only mk-p (new step). (q A): only the initial state.
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A)"
        " (:init (q A)) (:goal (and (q A) (p A))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    q_flaw, p_flaw = plan.agenda
    zlifo = builtin("ZLIFO")
    assert select_flaw(zlifo, plan, MINI) is p_flaw
    # swap insertion order: still the new-step flaw, not the LIFO winner
    swapped = plan.agenda[::-1]
    plan2 = replace(plan, agenda=swapped)
    assert select_flaw(zlifo, plan2, MINI) is p_flaw


def test_first_match_counts():
    # a cost-0 open matches ZLIFO's {o}0 preference and is never seen by
    # later preferences even though they also cover opens
    prob = parse_problem(
        "(define (problem x) (:domain seltest) (:objects A)"
        " (:init) (:goal (and (p A) (s0 A))))",
        MINI,
    )
    plan = make_skeletal_plan(MINI, prob)
    p_flaw, dead = plan.agenda
    assert select_flaw(builtin("ZLIFO"), plan, MINI) is dead  # cost 0 wins


def test_selection_is_deterministic():
    dom, probs = bundled("briefcase")
    plan = make_skeletal_plan(dom, probs[0])
    for name in builtin_names():
        s = builtin(name)
        a = select_flaw(s, plan, dom, random.Random(3))
        b = select_flaw(s, plan, dom, random.Random(3))
        assert a is b


def test_lcfr_selection_cost_is_global_minimum_along_search():
    dom, probs = bundled("blocks")

    class Obs:
        def __init__(self):
            self.checked = 0

        def on_expand(self, plan, flaw, children):
            costs = [len(enumerate_repairs(plan, f, dom)) for f in plan.agenda]
            assert len(enumerate_repairs(plan, flaw, dom)) == min(costs)
            self.checked += 1

    obs = Obs()
    out = plan_search(dom, probs[0], builtin("LCFR"), SearchConfig(node_limit=3000), observer=obs)
    assert out.solved and obs.checked > 10


def test_dunf_gen_picks_lcfr_flaw_at_cost_one():
    """Dead-end pruning leaves no cost-0 flaw to select, so wherever some
    flaw costs 1, DUnf-Gen's {n,s,o}1 LIFO pick is LCFR's: LC breaks its
    ties LIFO too."""
    dom, probs = bundled("tileworld")
    lcfr = builtin("LCFR")

    class Obs:
        def __init__(self):
            self.checked = self.ties = 0

        def on_expand(self, plan, flaw, children):
            ones = sum(len(enumerate_repairs(plan, f, dom)) == 1 for f in plan.agenda)
            if ones:
                assert select_flaw(lcfr, plan, dom) is flaw
                self.checked += 1
                self.ties += ones > 1

    obs = Obs()
    plan_search(dom, probs[2], builtin("DUnf-Gen"), SearchConfig(node_limit=300), observer=obs)
    assert obs.checked > 50 and obs.ties >= 5


def test_pruning_preempts_zero_cost_selection():
    dom, probs = bundled("blocks")

    class Obs:
        def on_expand(self, plan, flaw, children):
            assert len(enumerate_repairs(plan, flaw, dom)) > 0

    for name in ("UCPOP", "LCFR", "ZLIFO"):
        plan_search(dom, probs[2], builtin(name), SearchConfig(node_limit=2000), observer=Obs())
