"""Benchmark harness: %-overrun math, matrices, CSV determinism."""

import csv
import io
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import poclab
from poclab.bench import (
    CSV_COLUMNS,
    NODE_KIND,
    TIME_KIND,
    RunRecord,
    build_overrun_table,
    effective_count,
    format_pct,
    pct_overrun,
    render_csv,
    run_matrix,
)
from poclab.domains import bundled
from poclab.search import SearchConfig, plan_search
from poclab.strategies import builtin


def rec(strategy, problem, status="solved", nodes=100, kind=NODE_KIND, limit=10000.0):
    return RunRecord(
        strategy=strategy,
        problem=problem,
        rank_label="S+OC",
        limit_kind=kind,
        limit_value=limit,
        status=status,
        nodes=nodes,
        seconds=0.5,
        seed=0,
        reverse=False,
    )


def test_pct_overrun_worked_example():
    assert pct_overrun(200, 100) == 100
    assert pct_overrun(100, 100) == 0
    assert pct_overrun(10000, 250) == 3900
    assert pct_overrun(150, 100) == 50
    assert pct_overrun(1, 3) == Fraction(-200, 3)
    with pytest.raises(ValueError):
        pct_overrun(10, 0)


def test_format_pct_two_decimals_exact():
    assert format_pct(Fraction(100)) == "100.00"
    assert format_pct(Fraction(0)) == "0.00"
    assert format_pct(Fraction(1, 3)) == "0.33"
    assert format_pct(Fraction(2, 3)) == "0.67"
    assert format_pct(Fraction(-200, 3)) == "-66.67"
    assert format_pct(Fraction(1, 800)) == "0.00"  # 0.125% rounds to even


def test_effective_count_clamps_failures_to_nominal_limit():
    assert effective_count(rec("s", "p", nodes=123)) == 123
    assert effective_count(rec("s", "p", status="node-limit", nodes=10007)) == 10000
    assert effective_count(rec("s", "p", status="exhausted", nodes=55)) == 55


def test_overrun_table_basics():
    records = [
        rec("fast", "p1", nodes=100),
        rec("slow", "p1", nodes=250),
    ]
    table = build_overrun_table(records)
    assert table.minima == {"p1": 100}
    assert table.overruns[("fast", "p1")] == 0
    assert table.overruns[("slow", "p1")] == 150
    assert table.averages == {"fast": 0, "slow": 150}


def test_overrun_table_excludes_unsolved_problems():
    records = [
        rec("a", "easy", nodes=10),
        rec("b", "easy", nodes=40),
        rec("a", "hopeless", status="node-limit", nodes=10000),
        rec("b", "hopeless", status="node-limit", nodes=10002),
    ]
    table = build_overrun_table(records)
    assert table.excluded == ("hopeless",)
    assert ("a", "hopeless") not in table.overruns
    assert table.averages["a"] == 0
    assert table.averages["b"] == 300


def test_overrun_table_single_strategy_degenerate():
    table = build_overrun_table([rec("only", "p", nodes=7)])
    assert table.overruns[("only", "p")] == 0
    assert table.averages == {"only": 0}


def test_failed_cells_use_nominal_limit_in_overruns():
    records = [
        rec("good", "p", nodes=250),
        rec("bad", "p", status="node-limit", nodes=10007),
    ]
    table = build_overrun_table(records)
    assert table.minima == {"p": 250}
    assert table.overruns[("bad", "p")] == 3900  # (10000 - 250) / 250, not 10007


def test_run_matrix_validation():
    dom, probs = bundled("blocks")
    tasks = [(dom, probs[0])]
    with pytest.raises(ValueError, match="non-empty"):
        run_matrix([], [builtin("LCFR")], SearchConfig(node_limit=10))
    with pytest.raises(ValueError, match="unique"):
        run_matrix(tasks + tasks, [builtin("LCFR")], SearchConfig(node_limit=10))
    with pytest.raises(ValueError, match="strategy labels must be unique"):
        run_matrix(tasks, [builtin("LCFR"), builtin("lcfr")], SearchConfig(node_limit=10))
    with pytest.raises(ValueError, match="neither node_limit nor time_limit"):
        run_matrix(tasks, [builtin("LCFR")], SearchConfig())


def small_matrix(jobs=1, time_limit=None, node_limit=10000):
    dom, probs = bundled("blocks")
    tasks = [(dom, probs[0]), (dom, probs[1])]
    strategies = [builtin("UCPOP"), builtin("LCFR")]
    config = SearchConfig(node_limit=node_limit, time_limit=time_limit, seed=0)
    return run_matrix(tasks, strategies, config, jobs=jobs)


def test_run_matrix_records_and_table():
    records, table = small_matrix(time_limit=30.0)
    assert len(records) == 8  # 2 strategies x 2 problems x 2 passes
    assert [r.limit_kind for r in records] == [NODE_KIND, TIME_KIND] * 4
    assert [r.limit_value for r in records] == [10000.0, 30.0] * 4
    keys = [(r.strategy, r.problem, r.limit_kind) for r in records]
    assert keys == sorted(keys)
    assert all(r.status == "solved" for r in records)
    # the table only reads the node pass
    assert set(table.minima) == {"sussman", "tower4"}
    best = {p: min(r.nodes for r in records if r.problem == p and r.limit_kind == NODE_KIND)
            for p in ("sussman", "tower4")}
    assert table.minima == best


def test_a_matrix_runs_only_the_passes_its_config_sets():
    records, table = small_matrix()
    assert [r.limit_kind for r in records] == [NODE_KIND] * 4
    assert all(r.limit_value == 10000.0 for r in records)
    assert set(table.minima) == {"sussman", "tower4"}

    records, table = small_matrix(time_limit=30.0, node_limit=None)
    assert [r.limit_kind for r in records] == [TIME_KIND] * 4
    assert all(r.limit_value == 30.0 and r.status == "solved" for r in records)
    # the table reads only the node pass, so a time-only matrix leaves it empty
    assert table.minima == {} and table.overruns == {} and table.averages == {}


def test_csv_rows_match_their_records():
    records, table = small_matrix(time_limit=30.0)
    text = render_csv(records, table)
    assert text.endswith("\r\n")
    header, *rows = csv.reader(io.StringIO(text))
    assert tuple(header) == CSV_COLUMNS
    # records come sorted by (strategy, problem, limit kind), as the rows are
    assert len(rows) == len(records) == 8
    for row, r in zip(rows, records):
        node = r.limit_kind == NODE_KIND
        assert row == [
            r.strategy,
            r.problem,
            r.rank_label,
            r.limit_kind,
            "10000" if node else "30",
            r.status,
            str(r.nodes),
            "" if node else f"{r.seconds:.3f}",  # node rows: no wall time
            "0",
            "false",
            format_pct(table.overruns[(r.strategy, r.problem)]) if node else "",
        ]


def test_node_pass_is_byte_reproducible():
    import dataclasses

    a_records, a_table = small_matrix()
    b_records, b_table = small_matrix()
    assert render_csv(a_records, a_table) == render_csv(b_records, b_table)
    # identical modulo measured wall time
    strip = lambda rs: [dataclasses.replace(r, seconds=0.0) for r in rs]
    assert strip(a_records) == strip(b_records)


def test_parallel_matrix_matches_serial():
    a_records, a_table = small_matrix(jobs=1)
    b_records, b_table = small_matrix(jobs=2)
    assert render_csv(a_records, a_table) == render_csv(b_records, b_table)


def test_searched_domains_pickle_and_run_in_workers():
    # A search builds each operator's instantiation template and keeps it
    # on the operator, so the domain a worker receives carries it.
    dom, probs = bundled("tileworld")
    plan_search(dom, probs[1], builtin("UCPOP"), SearchConfig(node_limit=300))
    assert all("template" in vars(op) for op in dom.operators)
    back = pickle.loads(pickle.dumps(dom))
    assert back == dom
    assert [op.template for op in back.operators] == [op.template for op in dom.operators]
    tasks = [(dom, probs[0]), (dom, probs[1])]
    strategies = [builtin("UCPOP"), builtin("LCFR")]
    config = SearchConfig(node_limit=2000, seed=0)
    serial, _ = run_matrix(tasks, strategies, config, jobs=1)
    parallel, _ = run_matrix(tasks, strategies, config, jobs=2)
    assert [replace(r, seconds=0.0) for r in parallel] == [replace(r, seconds=0.0) for r in serial]


def test_importing_poclab_loads_no_process_pool():
    """Only a matrix with jobs > 1 imports the process pool."""
    src = Path(poclab.__file__).resolve().parents[1]
    probe = "import sys, poclab; print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"

