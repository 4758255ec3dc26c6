"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Criterion 6 (the tileworld ordering phenomenon) has two
tests.  test_criterion_6_tileworld_phenomenon checks its least-cost half:
LCFR's lead over the separable-threat-delay strategies, and precondition
order reaching LCFR only through LC's LIFO tie-break.
test_criterion_6_dunf_gen_and_reversal states the DUnf-Gen and reversal
clauses as written; it is a known red, and its docstring gives the
pinned causes and the measured counts.
"""

import functools
import json
import time
from dataclasses import replace
from pathlib import Path

import oracle
from helpers import plan_with, separable_threat_fixture
from poclab.bench import (
    NODE_KIND,
    RunRecord,
    build_overrun_table,
    effective_count,
    pct_overrun,
    render_csv,
    run_matrix,
)
from poclab.domains import bundled, bundled_names, parse_domain, parse_problem
from poclab.flaws import (
    enumerate_open_repairs,
    enumerate_repairs,
    enumerate_threat_repairs,
    refresh_flaw,
    repair_cost,
)
from poclab.plan import (
    NONSEPARABLE,
    OPEN,
    Flaw,
    Step,
    add_ordering,
    validate_solution,
)
from poclab.search import SearchConfig, parse_rank, plan_search
from poclab.strategies import builtin, builtin_names, parse_strategy, select_flaw
from poclab.terms import const, lit

LIMIT = 10000
RANKS = ("S+OC", "S+OC+UC")
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


def all_tasks():
    for name in bundled_names():
        dom, probs = bundled(name)
        for p in probs:
            yield dom, p


def golden_cells() -> dict[str, dict]:
    """The benchmark's recorded cells of the 252-cell sweep, keyed
    `strategy|problem|rank`."""
    cells = {}
    for workload in ("sweep-costed", "sweep-uncosted"):
        cells.update(json.loads((GOLDEN / f"{workload}.json").read_text())["cells"])
    return cells


def test_criterion_1_soundness_suite():
    """Every solved (problem x strategy x rank) run validates, and every
    run's node counts equal the benchmark's golden record."""
    golden = golden_cells()
    t0 = time.time()
    solved = checked = 0
    mismatched = []
    for dom, prob in all_tasks():
        for rank in RANKS:
            for name in builtin_names():
                out = plan_search(
                    dom, prob, builtin(name),
                    SearchConfig(rank=parse_rank(rank), node_limit=LIMIT),
                )
                checked += 1
                key = f"{name}|{prob.name}|{rank}"
                want = golden.pop(key)
                st = out.stats
                got = (out.status, st.nodes_generated, st.nodes_expanded, st.nodes_pruned)
                if got != (want["status"], want["generated"], want["expanded"], want["pruned"]):
                    mismatched.append(f"{key}: {got}")
                if out.solved:
                    solved += 1
                    assert validate_solution(out.plan, dom, prob), (
                        f"{name} on {prob.name} ({rank}) returned an invalid plan"
                    )
    elapsed = time.time() - t0
    assert not golden, f"golden cells never run: {sorted(golden)}"
    assert not mismatched, f"node counts differ from golden: {mismatched}"
    ok = elapsed < 120.0 and solved > 0
    report("1 soundness", ok, f"{solved}/{checked} runs solved, all valid, golden counts, {elapsed:.1f}s")
    assert ok, f"suite took {elapsed:.1f}s (budget 120s)"


def test_criterion_2_overrun_formula():
    assert pct_overrun(200, 100) == 100  # the worked example
    assert pct_overrun(100, 100) == 0

    def rr(strategy, status, nodes):
        return RunRecord(strategy, "p", "S+OC", NODE_KIND, 10000.0, status, nodes, 0.0, 0, False)

    overshoot = rr("slow", "node-limit", 10007)
    assert effective_count(overshoot) == 10000  # clamped to the nominal limit
    table = build_overrun_table([rr("best", "solved", 250), overshoot])
    assert table.overruns[("best", "p")] == 0  # the per-problem best sits at zero
    assert table.overruns[("slow", "p")] == 3900
    report("2 overrun formula", True, "worked example, clamping, zero-at-best")


def test_criterion_3_separation_arithmetic():
    plan, flaw = separable_threat_fixture()
    repairs = enumerate_threat_repairs(plan, flaw)
    separations = [r for r in repairs if r.kind == "separate"]
    orderings = [r for r in repairs if r.kind in ("promote", "demote")]
    assert len(separations) == 3
    assert len(orderings) <= 2

    # nonseparable threats never exceed two repairs, checked along real runs
    checked = [0]

    class Obs:
        def __init__(self, dom):
            self.dom = dom

        def on_expand(self, plan, flaw, children):
            for f in plan.agenda:
                if f.kind == NONSEPARABLE:
                    assert len(enumerate_threat_repairs(plan, f)) <= 2
                    checked[0] += 1

    for domname, pidx, strat in (("blocks", 2, "UCPOP"), ("tileworld", 1, "DSep")):
        dom, probs = bundled(domname)
        plan_search(dom, probs[pidx], builtin(strat), SearchConfig(node_limit=3000), observer=Obs(dom))
    report("3 separation arithmetic", True, f"3 separations + <=2 orderings; {checked[0]} nonseparable spot checks")


def test_criterion_4_threat_cost_monotonicity():
    class Monotone:
        def __init__(self, dom):
            self.dom = dom
            self.samples = 0
            self.violations = []

        def on_expand(self, parent, flaw, children):
            parent_costs = {
                id(f): len(enumerate_repairs(parent, f, self.dom))
                for f in parent.agenda
                if f.is_threat
            }
            if not parent_costs:
                return
            for child in children:
                for f in child.agenda:
                    pc = parent_costs.get(id(f))
                    if pc is None:
                        continue
                    live = refresh_flaw(child, f)
                    if live is None:
                        continue  # vanished: no longer costs anything
                    cc = len(enumerate_repairs(child, live, self.dom))
                    self.samples += 1
                    if cc > pc:
                        self.violations.append((f.describe(), pc, cc))

    total = 0
    violations = []
    runs = [
        ("tileworld", 1, builtin("UCPOP"), 0),
        ("tileworld", 2, builtin("LCFR"), 0),
        ("briefcase", 1, builtin("DSep"), 0),
        ("blocks", 2, parse_strategy("{o,n,s}R", name="pure-random"), 13),
        ("tileworld", 1, parse_strategy("{o,n,s}R", name="pure-random"), 99),
    ]
    for domname, pidx, strategy, seed in runs:
        dom, probs = bundled(domname)
        obs = Monotone(dom)
        plan_search(
            dom, probs[pidx], strategy,
            SearchConfig(node_limit=1200, seed=seed), observer=obs,
        )
        total += obs.samples
        violations.extend(obs.violations)
    ok = total >= 1000 and not violations
    report("4 threat-cost monotonicity", ok, f"{total} parent/child threat samples, {len(violations)} violations")
    assert total >= 1000
    assert not violations, violations[:5]


def test_criterion_5_dsep_dominance():
    config = SearchConfig(rank=parse_rank("S+OC"), node_limit=LIMIT)
    rows = []
    caveat = []
    for dom, prob in all_tasks():
        u = plan_search(dom, prob, builtin("UCPOP"), config)
        d = plan_search(dom, prob, builtin("DSep"), config)
        if u.solved and d.solved:
            rows.append((prob.name, u.stats.nodes_generated, d.stats.nodes_generated))
        ul = plan_search(dom, prob, builtin("UCPOP-LC"), config)
        dl = plan_search(dom, prob, builtin("DSep-LC"), config)
        if ul.solved and dl.solved and dl.stats.nodes_generated > ul.stats.nodes_generated:
            caveat.append((prob.name, ul.stats.nodes_generated, dl.stats.nodes_generated))
    violations = [(p, u, d) for p, u, d in rows if d > u]
    detail = f"{len(rows)} problems solved by both; LC caveat witnesses: {caveat or 'none'}"
    report("5 DSep dominance", not violations, detail)
    assert rows, "no problem solved by both UCPOP and DSep"
    assert not violations, violations


TILEWORLD_STRATEGIES = ("LCFR", "DUnf-Gen", "LCFR-DSep", "ZLIFO")


class _Expansions:
    def __init__(self):
        self.choices = []

    def on_expand(self, plan, flaw, children):
        self.choices.append((plan, flaw))


@functools.cache
def _tileworld_runs():
    """The 24 searches of criterion 6: tileworld-2..4 x
    TILEWORLD_STRATEGIES x default/reversed precondition order,
    S+OC+UC, 10k-node limit.  Returns the domain, nodes generated by
    (problem, reversed, strategy), LCFR's (plan, flaw) choices by
    (problem, reversed), and the seconds the searches took."""
    t0 = time.time()
    dom, probs = bundled("tileworld")
    counts, lcfr_choices = {}, {}
    for prob in probs[1:]:  # the 2, 3, 4 hole instances
        for rev in (False, True):
            for name in TILEWORLD_STRATEGIES:
                obs = _Expansions() if name == "LCFR" else None
                out = plan_search(
                    dom, prob, builtin(name),
                    SearchConfig(rank=parse_rank("S+OC+UC"), node_limit=LIMIT,
                                 reverse_preconditions=rev),
                    observer=obs,
                )
                counts[(prob.name, rev, name)] = out.stats.nodes_generated
                if obs is not None:
                    lcfr_choices[(prob.name, rev)] = obs.choices
    return dom, counts, lcfr_choices, time.time() - t0


def _tileworld_table(counts):
    instances = sorted({p for p, _, _ in counts})
    return "; ".join(
        f"{p}: " + " ".join(
            f"{s}={counts[(p, False, s)]}/{counts[(p, True, s)]}"
            for s in TILEWORLD_STRATEGIES
        )
        for p in instances
    )


def _beats_delay_strategies(counts, p, rev, names):
    """Whether every strategy in `names` generates fewer nodes on `p`
    than both LCFR-DSep and ZLIFO."""
    return max(counts[(p, rev, s)] for s in names) < min(
        counts[(p, rev, "LCFR-DSep")], counts[(p, rev, "ZLIFO")]
    )


def _choice_signature(plan, flaw):
    """A flaw choice without names: kind, predicate, operator of its step."""
    return (flaw.kind, flaw.literal.pred, plan.steps[flaw.step].name)


def _turns_on_insertion_order(strategy, plan, flaw, dom):
    """Whether select_flaw's pick of `flaw` on `plan` changes when the
    agenda's insertion stamps are put in reverse order."""
    stamps = sorted(f.inserted_at for f in plan.agenda)
    flip = dict(zip(stamps, reversed(stamps)))
    flipped = replace(
        plan,
        agenda=tuple(replace(f, inserted_at=flip[f.inserted_at]) for f in plan.agenda),
    )
    i = next(i for i, f in enumerate(plan.agenda) if f is flaw)
    return select_flaw(strategy, flipped, dom) is not flipped.agenda[i]


def test_criterion_6_tileworld_phenomenon():
    """Tileworld ordering phenomenon, least-cost half, on the 24 searches
    of _tileworld_runs.  Asserts:

    1. LCFR beats both LCFR-DSep and ZLIFO on >=2 problems in default
       order: least-cost selection is a good default, and domain
       characteristics can reduce the effectiveness of delaying
       separable threats (the abstract).
    2. LCFR's default and reversed runs make the same choices (flaw
       kind, predicate, operator of the flaw's step) up to their first
       difference, and in both runs select_flaw's pick there changes
       when the agenda's insertion stamps are reversed.

    Clause 2 is what LC promises in place of the stated "LCFR's counts
    are identical under both orders", which does not hold: 48/41,
    104/104, 223/218 nodes (default/reversed).  LC breaks its ties LIFO
    by insertion stamp (README, test_lc_breaks_ties_by_lifo) and
    reversal permutes exactly those stamps.  On all three problems the
    runs first choose differently at the 2nd expansion (the root's is
    the 1st), where the first fill step's (hole-at ?h ?l) and
    (holding ?s ?t) tie at cost 1 with the remaining (filled h) goals;
    tileworld-3 lands on 104/104 by chance.  Reversing only the goal
    list moves no count: the holes are symmetric.

    The DUnf-Gen half of the phenomenon and the reversal clause are
    asserted as stated by test_criterion_6_dunf_gen_and_reversal.
    """
    dom, counts, lcfr_choices, elapsed = _tileworld_runs()
    lcfr = builtin("LCFR")
    instances = sorted({p for p, _, _ in counts})
    lcfr_wins = [p for p in instances if _beats_delay_strategies(counts, p, False, ["LCFR"])]

    first_differences = {}  # problem -> expansion, the root's being the 1st
    order_failures = []
    for p in instances:
        default, reversed_ = lcfr_choices[(p, False)], lcfr_choices[(p, True)]
        k = next(
            (
                i
                for i, (a, b) in enumerate(zip(default, reversed_))
                if _choice_signature(*a) != _choice_signature(*b)
            ),
            None,
        )
        if k is None:
            if counts[(p, False, "LCFR")] != counts[(p, True, "LCFR")]:
                order_failures.append((p, "same choices, different counts"))
            continue
        first_differences[p] = k + 1
        for rev, (plan, flaw) in zip((False, True), (default[k], reversed_[k])):
            if not _turns_on_insertion_order(lcfr, plan, flaw, dom):
                order_failures.append((p, rev, k + 1, flaw.describe()))

    ok = len(lcfr_wins) >= 2 and not order_failures and elapsed < 300.0
    detail = (
        f"LCFR wins {lcfr_wins}; LCFR's first order differences {first_differences} "
        f"(all LC ties: {not order_failures}); {elapsed:.0f}s; "
        f"counts (default/reversed): {_tileworld_table(counts)}"
    )
    report("6 tileworld phenomenon", ok, detail)
    assert elapsed < 300.0
    assert len(lcfr_wins) >= 2, detail
    assert not order_failures, order_failures


def test_criterion_6_dunf_gen_and_reversal():
    """Tileworld ordering phenomenon, the clauses this engine does not
    reproduce (a known red), on the 24 searches of _tileworld_runs:
    LCFR and DUnf-Gen each beat LCFR-DSep and ZLIFO on >=2 problems in
    default order, and reversing precondition order closes the gap to
    2x on >=2.

    Pinned causes, traced with an on_expand observer (expansions counted
    from 1, the root's being the 1st):

    - DUnf-Gen generates 768/10000/10000 nodes in default order.  It
      picks LCFR's flaw whenever some flaw costs 1 (all 9,425 such
      expansions across its six runs; test_strategies.py checks the
      rule on captured nodes), so it departs from LCFR only through
      {n,s,o}2-inf LIFO.  Those picks enter an unbounded regress of go
      steps: go accepts any object as a location; once a new go is
      ordered before the consumer of (at start), its (not (at ?from))
      threat to that link can only be repaired by separating ?from from
      start, and its own (at ?from) needs yet another new go.  On
      tileworld-3, 6,612 of DUnf-Gen's 7,007 expansions are of plans
      with more than the 2 go steps the shortest plan needs; ZLIFO
      1,423 of 1,501; LCFR 0 of 53.
    - The gap closes only on tileworld-2.  On tileworld-3, ZLIFO goes
      from 3090 to 5023 nodes through the same go regress.  Its reversed
      run first differs at the 19th, 24th and 28th expansion
      (tileworld-2, 3, 4), each an {o}2-inf LIFO choice between a new
      pickup's (at ?l) and its (tile-at ?t ?l).
    - Neither obvious change restores the clauses.  Restricting go to
      location objects (a static (loc ?l) precondition on ?to, or on
      both ?from and ?to) leaves DUnf-Gen at 10000 nodes on tileworld-3
      and -4.  Breaking DUnf-Gen's {n,s,o}2-inf ties FIFO gives
      124/910/6446, still above LCFR-DSep's 45/190/2620.

    PAPER.md holds only the abstract, and the paper's Tileworld encoding
    and node table are not in the repository, so whether these clauses
    or the bundled encoding are at fault cannot be settled yet.
    """
    _, counts, _, elapsed = _tileworld_runs()
    instances = sorted({p for p, _, _ in counts})
    both = ["LCFR", "DUnf-Gen"]
    default_wins = [p for p in instances if _beats_delay_strategies(counts, p, False, both)]
    gap_closed = [
        p
        for p in instances
        if max(counts[(p, True, "LCFR-DSep")], counts[(p, True, "ZLIFO")])
        <= 2 * min(counts[(p, True, s)] for s in both)
    ]
    ok = len(default_wins) >= 2 and len(gap_closed) >= 2
    detail = (
        f"LCFR and DUnf-Gen win {default_wins}, reversal gap closed {gap_closed}; "
        f"counts (default/reversed): {_tileworld_table(counts)}"
    )
    report("6 DUnf-Gen and reversal", ok, detail)
    assert ok, detail


def test_criterion_7_briefcase_variant():
    dom, probs = bundled("briefcase")
    variant = probs[1]
    assert variant.name == "get-paid-bc-at-work"
    results = {}
    for name in ("ZLIFO", "LCFR-DSep"):
        out = plan_search(dom, variant, builtin(name), SearchConfig(node_limit=LIMIT))
        assert out.solved, name
        results[name] = out.stats.nodes_generated
    ok = all(n <= 2000 for n in results.values())
    report("7 briefcase variant", ok, f"nodes: {results} (budget 2000 each)")
    assert ok, results


MICRO_CASES = {
    "blocks": [
        ("(on-table A) (on-table B) (on C A) (clear C) (clear B)", "(on C B)"),
        ("(on-table A) (on-table B) (on C A) (clear C) (clear B)", "(on-table C)"),
        ("(on-table A) (on-table B) (on C A) (clear C) (clear B)", "(on A B)"),
        ("(on-table A) (on-table B) (on C A) (clear C) (clear B)", "(on C B) (on-table A)"),
    ],
    "briefcase": [
        ("(bc-at home) (at dictionary home) (in paycheck)", "(in dictionary)"),
        ("(bc-at home) (at dictionary home) (in paycheck)", "(bc-at bank)"),
        ("(bc-at home) (at dictionary home) (in paycheck)", "(at paycheck home)"),
        ("(bc-at home) (at dictionary home) (in paycheck)", "(at paycheck bank)"),
        ("(bc-at home) (at dictionary home) (in paycheck)", "(bc-at bank) (in dictionary)"),
    ],
    "tileworld": [
        ("(at start) (tile-at t1 depot) (hole-at h1 field) (empty s1)", "(at depot)"),
        ("(at start) (tile-at t1 depot) (hole-at h1 field) (empty s1)", "(holding s1 t1)"),
        ("(at depot) (tile-at t1 depot) (hole-at h1 field) (empty s1)", "(tile-at t1 depot) (at field)"),
    ],
}

MICRO_OBJECTS = {
    "blocks": "A B C",
    "briefcase": "home office bank paycheck dictionary",
    "tileworld": "start depot field t1 h1 s1",
}


def test_criterion_8_completeness_on_two_action_problems():
    checked = 0
    for domname, cases in MICRO_CASES.items():
        dom, _ = bundled(domname)
        for i, (init, goal) in enumerate(cases):
            prob = parse_problem(
                f"(define (problem micro-{domname}-{i}) (:domain {dom.name})"
                f" (:objects {MICRO_OBJECTS[domname]})"
                f" (:init {init}) (:goal (and {goal})))",
                dom,
            )
            depth = oracle.optimal_length(dom, prob, max_depth=2)
            assert depth is not None and depth <= 2, (prob.name, depth)
            for name in builtin_names():
                out = plan_search(dom, prob, builtin(name), SearchConfig(node_limit=LIMIT))
                assert out.solved, f"{name} failed on {prob.name}"
                assert validate_solution(out.plan, dom, prob), (name, prob.name)
                checked += 1
    report("8 completeness", True, f"{checked} (micro-problem x strategy) runs all solved")


def test_criterion_9_bench_determinism():
    dom, probs = bundled("blocks")
    tasks = [(dom, p) for p in probs]
    strategies = [builtin(n) for n in ("UCPOP", "LCFR", "ZLIFO", "QLCFR")]
    config = SearchConfig(rank=parse_rank("S+OC"), node_limit=LIMIT, seed=7)
    a_records, a_table = run_matrix(tasks, strategies, config, (NODE_KIND,))
    b_records, b_table = run_matrix(tasks, strategies, config, (NODE_KIND,))
    nodes_equal = [r.nodes for r in a_records] == [r.nodes for r in b_records]
    bytes_equal = render_csv(a_records, a_table) == render_csv(b_records, b_table)
    report("9 determinism", nodes_equal and bytes_equal,
           f"{len(a_records)} cells, nodes {'==' if nodes_equal else '!='}, CSV bytes {'==' if bytes_equal else '!='}")
    assert nodes_equal and bytes_equal


def test_criterion_10_cached_cost_divergence():
    dom = parse_domain(
        """
(define (domain cache-demo)
  (:predicates (on ?x ?y) (go))
  (:operator mk-on
    :parameters (?x ?y)
    :precondition (and (go))
    :effect (and (on ?x ?y))))
"""
    )
    A, B = const("A"), const("B")
    producer = Step(2, "mk-on", (), (), (lit("on", A, B),), 0)
    consumer = Step(3, "consumer", (), (lit("on", A, B),), (), 0)
    open_flaw = Flaw(OPEN, 3, lit("on", A, B), None, inserted_at=4)
    base = plan_with(steps=(producer, consumer), agenda=(open_flaw,))
    # cost computed once, at insertion: the reuse candidate plus the library
    insertion_cost = len(enumerate_open_repairs(base, open_flaw, dom))
    flaw = Flaw(OPEN, 3, lit("on", A, B), None, inserted_at=4, cached_cost=insertion_cost)
    cached_plan = plan_with(steps=(producer, consumer), agenda=(flaw,))
    assert insertion_cost == 2

    # promote the candidate producer past the consumer
    moved = add_ordering(cached_plan, 3, 2)
    exact = repair_cost(moved, flaw, dom, mode="exact")
    cached = repair_cost(moved, flaw, dom, mode="cached")
    ok = exact == 1 and cached == insertion_cost
    report("10 cached-cost divergence", ok, f"insertion={insertion_cost}, exact-after-promotion={exact}, cached={cached}")
    assert ok
