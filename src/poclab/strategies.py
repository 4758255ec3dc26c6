"""Flaw-selection strategies: a preference-sequence DSL plus builtins.

A strategy is an ordered list of preferences, each naming the flaw
types it accepts ({o,n,s} for opens, nonseparable threats, separable
threats), an optional inclusive repair-cost range, and a tie-breaker.
Selection scans preferences in order and applies the tie-breaker within
the first preference that matches anything.  A strategy must be
exhaustive: every (type, cost) combination has to match some preference,
otherwise selection could come up empty on a live agenda.

Text form, e.g. ``{n,s}LIFO / {o}LIFO`` or ``{n}LIFO / {o}0 LIFO /
{o}1 New / {o}2-inf LIFO / {s}LIFO``.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass, replace

from .domains import Domain
from .flaws import FROM_START, NEW_STEP, REUSE, Delta, Repair, enumerate_repairs, rederive_open_repairs
from .flaws import enumerate_open_repairs  # noqa: F401  -- unused here; perfbench's tracer patches it
from .plan import NONSEPARABLE, OPEN, SEPARABLE, Flaw, PartialPlan

FLAW_TYPES = (OPEN, NONSEPARABLE, SEPARABLE)
TIEBREAKS = ("LIFO", "FIFO", "LC", "R", "New")

_KIND_WORDS = {OPEN: "open conditions", NONSEPARABLE: "nonseparable threats", SEPARABLE: "separable threats"}


class StrategyError(ValueError):
    """DSL syntax or exhaustiveness error; `position` is a 1-based
    column when the error is positional."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"column {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Preference:
    types: tuple[str, ...]
    costs: tuple[int, int | None] | None = None  # inclusive (lo, hi), hi None = unbounded; None = any cost
    tiebreak: str = "LIFO"

    def matches_cost(self, cost: int) -> bool:
        if self.costs is None:
            return True
        lo, hi = self.costs
        return lo <= cost and (hi is None or cost <= hi)

    def __str__(self) -> str:
        types = "{" + ",".join(self.types) + "}"
        if self.costs is None:
            return f"{types}{self.tiebreak}"
        lo, hi = self.costs
        rng = str(lo) if hi == lo else f"{lo}-{'inf' if hi is None else hi}"
        return f"{types}{rng} {self.tiebreak}"


@dataclass(frozen=True)
class Strategy:
    prefs: tuple[Preference, ...]
    name: str | None = None
    cached_costs: bool = False

    def __str__(self) -> str:
        return " / ".join(str(p) for p in self.prefs)

    @property
    def reads_costs(self) -> bool:
        """Does selection read repair costs or lists: a cost range, LC or New?"""
        return any(p.costs is not None or p.tiebreak in ("LC", "New") for p in self.prefs)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"[ \t\n]*(\{|\}|/|,|-|\d+|[A-Za-z]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if not rest.strip():
                break
            col = pos + len(rest) - len(rest.lstrip()) + 1
            raise StrategyError(f"unexpected character {rest.strip()[0]!r}", col)
        out.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens: list[tuple[str, int]], text_len: int):
        self.tokens = tokens
        self.i = 0
        self.end = text_len + 1

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.end

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise StrategyError("unexpected end of strategy", self.end)
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.peek()
        if got != tok:
            raise StrategyError(f"expected '{tok}', got {got!r}", self.pos())
        self.i += 1


def _parse_preference(cur: _Cursor) -> Preference:
    cur.expect("{")
    types: list[str] = []
    while True:
        pos = cur.pos()
        t = cur.take()
        if t not in FLAW_TYPES:
            raise StrategyError(f"flaw type must be one of {', '.join(FLAW_TYPES)}; got {t!r}", pos)
        if t in types:
            raise StrategyError(f"duplicate flaw type {t!r}", pos)
        types.append(t)
        if cur.peek() == ",":
            cur.take()
            continue
        break
    cur.expect("}")
    costs = None
    if cur.peek() is not None and cur.peek().isdigit():
        lo = hi = int(cur.take())
        if cur.peek() == "-":
            cur.take()
            pos = cur.pos()
            bound = cur.take()
            if bound == "inf":
                hi = None
            elif bound.isdigit():
                hi = int(bound)
            else:
                raise StrategyError(f"range upper bound must be an integer or inf, got {bound!r}", pos)
            if hi is not None and lo > hi:
                raise StrategyError(f"empty cost range {lo}-{hi}", pos)
        costs = (lo, hi)
    pos = cur.pos()
    word = cur.take()
    canonical = {t.lower(): t for t in TIEBREAKS}.get(word.lower())
    if canonical is None:
        raise StrategyError(f"unknown tie-breaker {word!r} (expected one of {', '.join(TIEBREAKS)})", pos)
    if canonical == "New" and costs != (1, 1):
        warnings.warn("'New' tie-breaking is only meaningful with cost range 1", stacklevel=4)
    return Preference(tuple(types), costs, canonical)


def exhaustiveness_witness(prefs: tuple[Preference, ...]) -> tuple[str, int] | None:
    """(flaw type, cost) matched by no preference, or None if covered."""
    for t in FLAW_TYPES:
        intervals = sorted((p.costs or (0, None) for p in prefs if t in p.types), key=lambda iv: iv[0])
        need: int | None = 0
        for lo, hi in intervals:
            if need is None:
                break
            if lo > need:
                return (t, need)
            if hi is None:
                need = None
            else:
                need = max(need, hi + 1)
        if need is not None:
            return (t, need)
    return None


def parse_strategy(text: str, name: str | None = None) -> Strategy:
    """Parse and validate the DSL; raises StrategyError with a column
    position on syntax errors, or with an uncovered (type, cost) witness
    when the preference sequence is not exhaustive."""
    cur = _Cursor(_tokenize(text), len(text))
    prefs = [_parse_preference(cur)]
    while cur.peek() is not None:
        cur.expect("/")
        prefs.append(_parse_preference(cur))
    witness = exhaustiveness_witness(tuple(prefs))
    if witness is not None:
        t, c = witness
        raise StrategyError(
            f"strategy is not exhaustive: {_KIND_WORDS[t]} uncovered (repair cost {c} matches no preference)"
        )
    return Strategy(tuple(prefs), name=name)


# ---------------------------------------------------------------------------
# builtins


# Parsed once, on import, and shared (a Strategy is a frozen value);
# keyed by lower-cased name, so that lookup ignores case.
_BUILTINS: dict[str, Strategy] = {
    s.name.lower(): s
    for s in (
        parse_strategy("{n,s}LIFO / {o}LIFO", "UCPOP"),
        parse_strategy("{n,s}LIFO / {o}LC", "UCPOP-LC"),
        parse_strategy("{n}LIFO / {o}LIFO / {s}LIFO", "DSep"),
        parse_strategy("{n}LIFO / {o}LC / {s}LIFO", "DSep-LC"),
        parse_strategy("{n}LIFO / {o}FIFO / {s}LIFO", "DSep-FIFO"),
        parse_strategy("{n,s}0 LIFO / {n,s}1 LIFO / {o}LIFO / {n,s}2-inf LIFO", "DUnf"),
        parse_strategy("{n,s}0 LIFO / {n,s}1 LIFO / {o}LC / {n,s}2-inf LIFO", "DUnf-LC"),
        parse_strategy("{n,s}0 LIFO / {n,s}1 LIFO / {o}FIFO / {n,s}2-inf LIFO", "DUnf-FIFO"),
        parse_strategy("{n,s,o}0 LIFO / {n,s,o}1 LIFO / {n,s,o}2-inf LIFO", "DUnf-Gen"),
        parse_strategy("{o,n,s}LC", "LCFR"),
        parse_strategy("{n,o}LC / {s}LC", "LCFR-DSep"),
        parse_strategy("{n}LIFO / {o}0 LIFO / {o}1 New / {o}2-inf LIFO / {s}LIFO", "ZLIFO"),
        parse_strategy("{o,n,s}LIFO", "LIFO"),
        replace(parse_strategy("{o,n,s}LC", "QLCFR"), cached_costs=True),
    )
}


def builtin_names() -> tuple[str, ...]:
    return tuple(s.name for s in _BUILTINS.values())


def builtin(name: str) -> Strategy:
    """Look up a builtin strategy by (case-insensitive) name."""
    s = _BUILTINS.get(name.lower())
    if s is None:
        raise KeyError(f"unknown strategy '{name}' (have: {', '.join(builtin_names())})")
    return s


def describe_builtins() -> list[tuple[str, str]]:
    # below the root, the search caches no cost unless SearchConfig.cost_mode is "cached"
    return [
        (s.name, f"{s}   (repair costs cached for the root's goals only)" if s.cached_costs else str(s))
        for s in _BUILTINS.values()
    ]


# ---------------------------------------------------------------------------
# selection


class RepairTable:
    """One node's repair lists, each made at most once.  Keyed
    by flaw identity (agenda entries are distinct objects); each entry
    holds its flaw, so the id cannot be reused while the table lives.

    `inherited` is what the node's parent handed on (open_lists): the
    parent's successor rows and its open conditions' lists by insertion
    stamp.  `delta` is the Delta that search.refinements made with the
    node, what the refinement from the parent changed.  An inherited
    list is re-checked against the two (rederive_open_repairs), not
    enumerated again: its reuse orderings only if the open's own row
    moved, its unifications only where the Delta touches their terms.
    The search's dead-end probe reads the inherited lists, and the
    search passes this node's open-condition lists on to its children
    (open_lists).  `counted` holds, by insertion stamp, the lists the
    search made to cost the node's new flaws: repairs() gives one to the
    costed copy of its flaw instead of enumerating again, and open_lists
    hands it on only once repairs() has given it, as if it were made
    then."""

    def __init__(
        self,
        plan: PartialPlan,
        domain: Domain,
        inherited: tuple[tuple[int, ...], dict[int, list[Repair]]] | None = None,
        delta: Delta | None = None,
    ):
        self.plan = plan
        self.domain = domain
        self.rows, self.inherited = inherited or ((), {})
        self.delta = delta
        self._lists: dict[int, tuple[Flaw, list[Repair]]] = {}
        self.counted: dict[int, list[Repair]] = {}

    def repairs(self, flaw: Flaw) -> list[Repair]:
        hit = self._lists.get(id(flaw))
        if hit is None:
            parent = self.inherited.get(flaw.inserted_at)
            if parent is not None:
                repairs = rederive_open_repairs(self.plan, flaw, parent, self.rows[flaw.step], self.delta)
            else:
                repairs = self.counted.get(flaw.inserted_at)
                if repairs is None:
                    repairs = enumerate_repairs(self.plan, flaw, self.domain)
            hit = self._lists[id(flaw)] = (flaw, repairs)
        return hit[1]

    def open_lists(self, selected: Flaw) -> tuple[tuple[int, ...], dict[int, list[Repair]]] | None:
        """The node's successor rows and its open conditions' lists by
        insertion stamp, but `selected`'s, for the children of this node
        to inherit; None when there are no lists, as for a strategy that
        reads no cost."""
        lists = {f.inserted_at: r for f, r in self._lists.values() if f.kind == OPEN and f is not selected}
        return (self.plan.orderings.succ, lists) if lists else None

    def cost(self, flaw: Flaw, cached: bool = False) -> int:
        """The one definition of a repair cost: with cached costs, the
        insertion-time cost if the flaw has one; else its repair count."""
        if cached and flaw.cached_cost is not None:
            return flaw.cached_cost
        return len(self.repairs(flaw))


_NEW_RANKS = {NEW_STEP: 0, REUSE: 1, FROM_START: 2}


def _new_step_rank(repairs: list[Repair]) -> int:
    """Preference order for 'New' given an open condition's repairs: a
    sole new step comes first, then sole reuse, then sole initial
    state; several repairs rank 3, the rank select_flaw gives threats."""
    if len(repairs) != 1:
        return 3
    return _NEW_RANKS.get(repairs[0].kind, 3)


def select_flaw(
    strategy: Strategy,
    plan: PartialPlan,
    domain: Domain,
    rng: random.Random | None = None,
    cost_mode: str = "exact",
    table: RepairTable | None = None,
) -> Flaw:
    """Pick the flaw to repair from a refreshed, non-empty agenda.

    Costs are computed only for flaws whose type matches a preference
    that actually needs them (a cost range, LC, or New), so cheap
    strategies stay cheap.  They are read from `table` (the search
    shares the node's table with refinement), or a fresh one.
    """
    if not plan.agenda:
        raise ValueError("agenda is empty")
    table = table or RepairTable(plan, domain)
    cached = strategy.cached_costs or cost_mode == "cached"
    cost = table.cost

    for pref in strategy.prefs:
        if pref.costs is not None:
            matches = [f for f in plan.agenda if f.kind in pref.types and pref.matches_cost(cost(f, cached))]
        else:
            matches = [f for f in plan.agenda if f.kind in pref.types]
        if not matches:
            continue
        tb = pref.tiebreak
        if len(matches) == 1 and tb != "R":
            return matches[0]
        if tb == "LIFO":
            return max(matches, key=lambda f: f.inserted_at)
        if tb == "FIFO":
            return min(matches, key=lambda f: f.inserted_at)
        if tb == "LC":
            return min(matches, key=lambda f: (cost(f, cached), -f.inserted_at))
        if tb == "New":
            return min(
                matches,
                key=lambda f: (_new_step_rank(table.repairs(f)) if f.kind == OPEN else 3, -f.inserted_at),
            )
        if tb == "R":
            if rng is None:
                raise ValueError("strategy uses random tie-breaking; an rng is required")
            return matches[rng.randrange(len(matches))]
        raise AssertionError(f"unhandled tie-breaker {tb}")
    raise RuntimeError("no preference matched any flaw; strategy is not exhaustive")
