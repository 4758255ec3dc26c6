"""Benchmark matrices: strategy × problem grids, %-overrun, CSV output.

Every cell runs once per limit its config sets: a node-limit pass when
`node_limit` is set and a time-limit pass when `time_limit` is.
%-overrun for a strategy on a problem is ((c - m)/m) * 100 where m is
the best node count any tested strategy achieved on that problem; cells
that hit a limit are charged the nominal limit value, not their actual
overshoot.  Problems no strategy solved are excluded from aggregates.
Overruns are exact rationals end to end and only rendered to two
decimals at the CSV boundary, so goldens never drift.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .domains import Domain, Problem
from .search import EXHAUSTED, SOLVED, SearchConfig, plan_search
from .strategies import Strategy

NODE_KIND = "node"
TIME_KIND = "time"

CSV_COLUMNS = (
    "strategy",
    "problem",
    "rank",
    "limit_kind",
    "limit_value",
    "status",
    "nodes",
    "seconds",
    "seed",
    "reverse",
    "overrun_pct",
)


@dataclass(frozen=True)
class RunRecord:
    strategy: str
    problem: str
    rank_label: str
    limit_kind: str
    limit_value: float
    status: str
    nodes: int
    seconds: float
    seed: int
    reverse: bool


def pct_overrun(c: int, m: int) -> Fraction:
    """((c - m)/m) * 100 as an exact rational."""
    if m < 1:
        raise ValueError("minimum node count must be at least 1")
    return Fraction(c - m, m) * 100


def format_pct(value: Fraction) -> str:
    """Two-decimal fixed rendering; ties round to even."""
    scaled = round(value * 100)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 100}.{scaled % 100:02d}"


def effective_count(record: RunRecord) -> int:
    """Node count for overrun purposes: failures are charged the
    nominal limit, even when the run overshot it."""
    if record.status in (SOLVED, EXHAUSTED):
        return record.nodes
    if record.limit_kind == NODE_KIND:
        return int(record.limit_value)
    return record.nodes


@dataclass(frozen=True)
class OverrunTable:
    minima: dict[str, int]
    overruns: dict[tuple[str, str], Fraction]
    averages: dict[str, Fraction]
    excluded: tuple[str, ...]


def build_overrun_table(records: Sequence[RunRecord]) -> OverrunTable:
    """Node-count overruns from the node-limit pass of a matrix."""
    node_records = [r for r in records if r.limit_kind == NODE_KIND]
    by_problem: dict[str, list[RunRecord]] = {}
    for r in node_records:
        by_problem.setdefault(r.problem, []).append(r)

    excluded = tuple(
        sorted(p for p, rs in by_problem.items() if not any(r.status == SOLVED for r in rs))
    )
    included = sorted(p for p in by_problem if p not in excluded)

    minima: dict[str, int] = {}
    overruns: dict[tuple[str, str], Fraction] = {}
    for p in included:
        minima[p] = min(effective_count(r) for r in by_problem[p])
    for r in node_records:
        if r.problem in excluded:
            continue
        overruns[(r.strategy, r.problem)] = pct_overrun(effective_count(r), minima[r.problem])

    averages: dict[str, Fraction] = {}
    strategies = sorted({r.strategy for r in node_records})
    for s in strategies:
        cells = [overruns[(s, p)] for p in included if (s, p) in overruns]
        if cells:
            averages[s] = sum(cells, Fraction(0)) / len(cells)
    return OverrunTable(minima, overruns, averages, excluded)


# ---------------------------------------------------------------------------
# matrix execution


def _strategy_label(s: Strategy) -> str:
    return s.name if s.name is not None else str(s)


def _run_cell(task: tuple[Domain, Problem, Strategy, SearchConfig]) -> RunRecord:
    """One search under a config that sets exactly one limit."""
    domain, problem, strategy, config = task
    out = plan_search(domain, problem, strategy, config)
    node_pass = config.node_limit is not None
    return RunRecord(
        strategy=_strategy_label(strategy),
        problem=problem.name,
        rank_label=config.rank.label,
        limit_kind=NODE_KIND if node_pass else TIME_KIND,
        limit_value=float(config.node_limit if node_pass else config.time_limit),
        status=out.status,
        nodes=out.stats.nodes_generated,
        seconds=out.stats.wall_seconds,
        seed=config.seed,
        reverse=config.reverse_preconditions,
    )


def run_matrix(
    tasks: Sequence[tuple[Domain, Problem]],
    strategies: Sequence[Strategy],
    config: SearchConfig,
    jobs: int = 1,
) -> tuple[list[RunRecord], OverrunTable]:
    """Run every (strategy, problem) cell once per limit `config` sets
    and build the node-count overrun table.

    `config` supplies rank weights, toggles, the seed, and the limits;
    each pass keeps only its own limit so the other cannot interfere.
    """
    if not tasks or not strategies:
        raise ValueError("tasks and strategies must be non-empty")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    names = [p.name for _, p in tasks]
    if len(set(names)) != len(names):
        raise ValueError("problem names must be unique across the matrix")
    labels = [_strategy_label(s) for s in strategies]
    if len(set(labels)) != len(labels):
        raise ValueError("strategy labels must be unique across the matrix")
    passes = []
    if config.node_limit is not None:
        passes.append(replace(config, time_limit=None))
    if config.time_limit is not None:
        passes.append(replace(config, node_limit=None))
    if not passes:
        raise ValueError("config sets neither node_limit nor time_limit")

    cells = [
        (domain, problem, strategy, pass_config)
        for strategy in strategies
        for domain, problem in tasks
        for pass_config in passes
    ]

    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_cell, cells))
    else:
        records = [_run_cell(c) for c in cells]
    records.sort(key=lambda r: (r.strategy, r.problem, r.limit_kind))
    return records, build_overrun_table(records)


# ---------------------------------------------------------------------------
# CSV


def _limit_text(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def render_csv(records: Sequence[RunRecord], table: OverrunTable) -> str:
    """RFC-4180 rows sorted by (strategy, problem, limit kind).

    Node-pass rows leave `seconds` empty: they are the byte-reproducible
    surface, and wall time would break that.  Time-pass rows carry the
    measurement and are excluded from determinism goldens instead.
    """
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_COLUMNS)
    for r in sorted(records, key=lambda r: (r.strategy, r.problem, r.limit_kind)):
        if r.limit_kind == NODE_KIND:
            seconds = ""
            pct = table.overruns.get((r.strategy, r.problem))
            overrun = format_pct(pct) if pct is not None else ""
        else:
            seconds = f"{r.seconds:.3f}"
            overrun = ""
        w.writerow(
            [
                r.strategy,
                r.problem,
                r.rank_label,
                r.limit_kind,
                _limit_text(r.limit_value),
                r.status,
                r.nodes,
                seconds,
                r.seed,
                "true" if r.reverse else "false",
                overrun,
            ]
        )
    return buf.getvalue()

