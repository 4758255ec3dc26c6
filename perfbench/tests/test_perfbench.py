"""The benchmark's own tests: `python3 -m pytest perfbench/tests`."""

import json
from pathlib import Path

import pytest

from perfbench import harness, replay, tracing
from perfbench.workloads import WORKLOADS, Cell, cells, run_order
from poclab import flaws, plan, search, terms

ROOT = Path(__file__).resolve().parents[2]
COSTED = WORKLOADS["sweep-costed"]
# A tiny workload: 12 sweep-costed cells on its two smallest problems.
TINY = [
    Cell(s, p, r)
    for s in ("LCFR", "ZLIFO", "QLCFR")
    for p in ("sussman", "tileworld-1")
    for r in ("S+OC", "S+OC+UC")
]


@pytest.fixture(scope="module")
def world():
    return harness.build_world()


@pytest.fixture(scope="module")
def golden():
    return harness.load_golden(COSTED.name)


def test_tiny_workload_matches_its_golden(world, golden):
    results = [harness.run_cell(world, COSTED, c) for c in TINY]
    chk = harness.check(results, golden)
    assert chk.failures == {}
    assert chk.csv_ok


def test_a_wrong_count_fails_the_cell(world, golden):
    results = [harness.run_cell(world, COSTED, c) for c in TINY[:2]]
    key = TINY[0].key
    tampered = dict(golden, cells=dict(golden["cells"]))
    tampered["cells"][key] = dict(golden["cells"][key], generated=golden["cells"][key]["generated"] + 1)
    chk = harness.check(results, tampered)
    assert set(chk.failures) == {key}


def test_golden_covers_every_workload_cell(world):
    problems = tuple(world.problems)
    for name, workload in WORKLOADS.items():
        keys = {c.key for c in cells(workload, problems)}
        assert keys == set(harness.load_golden(name)["cells"])


def test_wrappers_restore_the_originals(world, golden):
    snap = tracing.snapshot()
    originals = {attr: obj for _, attr, obj in snap}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert search.plan_search is not originals["plan_search"]
        assert plan.OrderingStore.with_ordering is not originals["with_ordering"]
        results = [harness.run_cell(world, COSTED, c) for c in TINY[:4]]
    assert tracing.leaks(snap) == []
    assert search.heapq is originals["heapq"]
    assert flaws.args_unifiable is originals["args_unifiable"]
    assert vars(terms.BindingStore)["require_distinct"] is originals["require_distinct"]
    assert harness.check(results, golden).failures == {}

    agg = tracer.aggregate()
    assert agg["search"][0] == 4  # one root span per cell
    for calls, inclusive, own, _ in agg.values():
        assert calls > 0 and 0 <= own <= inclusive
    assert agg["flaws.enumerate_repairs.select"][0] > 0


def test_untraced_run_after_traced_one_matches(world, golden):
    with tracing.Tracer().installed():
        harness.run_cell(world, COSTED, TINY[0])
    again = [harness.run_cell(world, COSTED, c) for c in TINY[:4]]
    assert harness.check(again, golden).failures == {}


def test_percentiles_report_their_sample_counts(world, golden):
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 50) == (2.0, 4)
    assert harness.percentile([5.0] * 20 + [9.0], 95) == (5.0, 21)
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    results = [harness.run_cell(world, COSTED, c) for c in TINY]
    metrics = harness.end_to_end(results, golden, harness.check(results, golden), 0.1, 30.0)
    assert metrics["cell_us_per_node_p95"][2] == f"over {len(TINY)} cells"


def test_two_seeds_give_identical_fingerprints(world, golden):
    first, second = run_order(TINY, golden["cells"], 1), run_order(TINY, golden["cells"], 2)
    assert first != second and sorted(first, key=str) == sorted(second, key=str)
    a = {r.cell.key: r.fingerprint for r in (harness.run_cell(world, COSTED, c) for c in first)}
    b = {r.cell.key: r.fingerprint for r in (harness.run_cell(world, COSTED, c) for c in second)}
    assert a == b


def test_run_order_puts_small_cells_first(golden):
    all_cells = cells(COSTED, tuple(dict.fromkeys(k.split("|")[1] for k in golden["cells"])))
    order = run_order(all_cells, golden["cells"], 7)
    assert sorted(order, key=str) == sorted(all_cells, key=str)
    small = [golden["cells"][c.key]["generated"] < 1000 for c in order]
    assert small == sorted(small, reverse=True)


def test_metrics_match_benchmark_json(world, golden):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [harness.run_cell(world, COSTED, c) for c in TINY[:2]]
    e2e = harness.end_to_end(results, golden, harness.check(results, golden), 0.1, 30.0)
    assert {k: m[1] for k, m in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    replay_us = replay.replay(world, WORKLOADS["sweep-uncosted"], batch_s=0.001, batches=1)
    layers = tracing.layer_metrics({}, [], [], replay_us)
    assert {k: m[1] for k, m in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(us > 0 for us in replay_us.values())
