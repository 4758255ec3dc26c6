"""poclab: a plan-space (partial-order causal-link) planning laboratory.

Pluggable flaw-selection strategies over a generic refinement search,
three bundled benchmark domains, and a node-count benchmark harness.
"""

from .bench import OverrunTable, RunRecord, pct_overrun, run_matrix
from .domains import Domain, ParseError, Problem, bundled, parse_domain, parse_problem
from .plan import PartialPlan, make_skeletal_plan, validate_solution
from .search import SearchConfig, SearchOutcome, parse_rank, plan_search
from .strategies import Strategy, StrategyError, builtin, parse_strategy, select_flaw

__all__ = [
    "Domain",
    "OverrunTable",
    "ParseError",
    "PartialPlan",
    "Problem",
    "RunRecord",
    "SearchConfig",
    "SearchOutcome",
    "Strategy",
    "StrategyError",
    "builtin",
    "bundled",
    "make_skeletal_plan",
    "parse_domain",
    "parse_problem",
    "parse_rank",
    "parse_strategy",
    "pct_overrun",
    "plan_search",
    "run_matrix",
    "select_flaw",
    "validate_solution",
]

__version__ = "0.1.0"
