"""Command-line front end: plan, bench, validate, list-strategies.

Exit codes: 0 on a solution / completed run, 1 when the planner fails
(exhausted or limit hit), 2 on usage or parse errors.  All diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .bench import format_pct, render_csv, run_matrix
from .domains import (
    DOMAIN_EXTENSION,
    PROBLEM_EXTENSION,
    Domain,
    ParseError,
    Problem,
    bundled,
    bundled_names,
    parse_domain,
    parse_problem,
)
from .plan import format_solution
from .search import SearchConfig, SearchStats, parse_rank, plan_search
from .strategies import StrategyError, builtin, builtin_names, describe_builtins, parse_strategy

SEED_ENV_VAR = "POCL_SEED"


def _add_planner_flags(p: argparse.ArgumentParser):
    p.add_argument("--rank", default="S+OC", help="node ranking, e.g. S+OC, S+OC+UC, S+OC+.1UC")
    p.add_argument("--node-limit", type=int, default=None, help="stop after this many generated nodes")
    p.add_argument("--time-limit", type=float, default=None, help="stop after this many wall seconds")
    p.add_argument(
        "--reverse-preconds",
        action="store_true",
        help="enter the goals and each new step's preconditions onto the agenda in reverse order",
    )
    p.add_argument("--qlcfr", action="store_true", help="cache repair costs at flaw insertion")
    p.add_argument("--dmin", action="store_true", help="prune nodes whose nonseparable threats cannot all be repaired")
    p.add_argument("--systematic", action="store_true", help="also treat same-sign unifiable effects as threats")
    p.add_argument("--seed", type=int, default=None, help=f"random tie-break seed (default ${SEED_ENV_VAR} or 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve one problem with one strategy")
    src = p_plan.add_mutually_exclusive_group(required=True)
    src.add_argument("--bundled", metavar="NAME", help=f"bundled domain ({', '.join(bundled_names())})")
    src.add_argument("--domain", metavar="FILE", help="domain file")
    p_plan.add_argument(
        "--problem",
        metavar="NAME_OR_FILE",
        help="problem file (with --domain) or bundled problem name (default: first)",
    )
    strat = p_plan.add_mutually_exclusive_group(required=True)
    strat.add_argument("--builtin", metavar="NAME", help="builtin strategy name")
    strat.add_argument("--strategy", metavar="DSL", help="strategy text, e.g. '{n,s}LIFO / {o}LIFO'")
    _add_planner_flags(p_plan)

    p_bench = sub.add_parser("bench", help="run a strategy × problem matrix and emit CSV")
    bsrc = p_bench.add_mutually_exclusive_group(required=True)
    bsrc.add_argument("--bundled", metavar="NAME", help="run all problems of a bundled domain")
    bsrc.add_argument("--suite", metavar="DIR", help=f"directory of *{DOMAIN_EXTENSION} / *{PROBLEM_EXTENSION} files")
    p_bench.add_argument(
        "--strategies",
        metavar="LIST",
        default=",".join(builtin_names()),
        help="comma-separated builtin names or DSL texts, e.g. 'LCFR,{n,s}LIFO / {o}LIFO' (default: all builtins)",
    )
    p_bench.add_argument("--out", metavar="CSV", default="-", help="CSV path, or - for stdout (default)")
    p_bench.add_argument("--jobs", type=int, default=1, help="concurrent matrix workers (default 1)")
    _add_planner_flags(p_bench)

    p_val = sub.add_parser("validate", help="check a strategy DSL text for well-formedness")
    p_val.add_argument("--strategy", metavar="DSL", required=True)

    sub.add_parser("list-strategies", help="print the builtin strategy definitions")
    return parser


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        return int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _build_config(args) -> SearchConfig:
    return SearchConfig(
        rank=parse_rank(args.rank),
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        reverse_preconditions=args.reverse_preconds,
        cost_mode="cached" if args.qlcfr else "exact",
        dmin_check=args.dmin,
        systematic=args.systematic,
        seed=_resolve_seed(args.seed),
    )


def _parse_strategy_arg(text: str):
    if "{" in text:
        return parse_strategy(text, name=None)
    return builtin(text)


def _load_plan_task(args) -> tuple[Domain, Problem]:
    if args.bundled:
        domain, problems = bundled(args.bundled)
        if args.problem is None:
            return domain, problems[0]
        for p in problems:
            if p.name == args.problem:
                return domain, p
        names = ", ".join(p.name for p in problems)
        raise KeyError(f"no bundled problem named '{args.problem}' (have: {names})")
    if args.problem is None:
        raise ValueError("--domain requires --problem FILE")
    domain = parse_domain(Path(args.domain).read_text(encoding="utf-8"))
    problem = parse_problem(Path(args.problem).read_text(encoding="utf-8"), domain)
    return domain, problem


def _load_suite(path: str) -> list[tuple[Domain, Problem]]:
    root = Path(path)
    if not root.is_dir():
        raise ValueError(f"suite directory not found: {path}")
    domains: dict[str, Domain] = {}
    for f in sorted(root.glob(f"*{DOMAIN_EXTENSION}")):
        d = parse_domain(f.read_text(encoding="utf-8"))
        if d.name in domains:
            raise ValueError(f"domain '{d.name}' defined twice in suite")
        domains[d.name] = d
    tasks = []
    for f in sorted(root.glob(f"*{PROBLEM_EXTENSION}")):
        text = f.read_text(encoding="utf-8")
        name = parse_problem(text).domain_name
        if name not in domains:
            raise ValueError(f"{f.name}: no domain named '{name}' in suite")
        tasks.append((domains[name], parse_problem(text, domains[name])))
    if not tasks:
        raise ValueError(f"no *{PROBLEM_EXTENSION} files in {path}")
    return tasks


def _print_stats(stats: SearchStats):
    print(f"nodes generated: {stats.nodes_generated}")
    print(f"nodes expanded: {stats.nodes_expanded}")
    print(f"nodes pruned: {stats.nodes_pruned}")
    print(f"max frontier: {stats.max_frontier}")
    print(f"children built: {stats.children_built}")
    print(f"children doomed: {stats.children_doomed}")
    print(f"flaws costed: {stats.flaws_costed}")
    print(f"wall seconds: {stats.wall_seconds:.3f}")
    print(f"grounded variables: {stats.grounded_variables}")
    print(f"seed: {stats.seed}")


def _cmd_plan(args) -> int:
    domain, problem = _load_plan_task(args)
    strategy = builtin(args.builtin) if args.builtin else parse_strategy(args.strategy)
    outcome = plan_search(domain, problem, strategy, _build_config(args))
    if outcome.solved:
        lines = format_solution(outcome.plan, domain, problem)
        print(f"solution ({len(lines)} steps):")
        for i, line in enumerate(lines, 1):
            print(f"  {i}. {line}")
        _print_stats(outcome.stats)
        return 0
    _print_stats(outcome.stats)
    print(f"no solution: {outcome.status}", file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    if args.suite:
        tasks = _load_suite(args.suite)
    else:
        domain, problems = bundled(args.bundled)
        tasks = [(domain, p) for p in problems]
    # split at commas outside braces, so a DSL text keeps its kind lists
    texts = re.split(r",(?![^{]*})", args.strategies)
    strategies = [_parse_strategy_arg(s.strip()) for s in texts if s.strip()]
    config = _build_config(args)
    if config.node_limit is None and config.time_limit is None:
        raise ValueError("bench needs --node-limit and/or --time-limit")
    records, table = run_matrix(tasks, strategies, config, jobs=args.jobs)
    text = render_csv(records, table)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {len(records)} records to {args.out}")
    if table.averages:
        print("average %-overrun (node pass):")
        width = max(len(s) for s in table.averages)
        for s, avg in sorted(table.averages.items(), key=lambda kv: (kv[1], kv[0])):
            print(f"  {s:<{width}}  {format_pct(avg)}")
    if config.node_limit is not None:
        excluded = ", ".join(table.excluded) if table.excluded else "none"
        print(f"problems unsolved by every strategy: {excluded}")
    return 0


def _cmd_validate(args) -> int:
    strategy = parse_strategy(args.strategy)
    print(f"ok: {strategy}")
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name, _ in describe_builtins())
    for name, text in describe_builtins():
        print(f"{name:<{width}}  {text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "list-strategies":
            return _cmd_list()
        raise AssertionError(f"unhandled command {args.command}")
    except (ParseError, StrategyError, ValueError, KeyError, OSError) as e:
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
