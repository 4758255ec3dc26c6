"""Terms, literals, and binding constraints (codesignation / noncodesignation).

Terms are flat: variables and constants only, no function symbols, so
unification never needs an occurs check.  Stores are immutable values;
every constraining operation returns a fresh extended store (or None on
inconsistency) and never touches the original.  One union over class
representatives (_union) decides whether two argument tuples can
codesignate pairwise, for unify, merge, threat classification and the
unifiability tests alike.  Most calls compare a single argument pair,
which the kernel decides with two lookups and no batch bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Term(NamedTuple):
    """A constant (vid == -1) or a variable instance (vid >= 0).

    Variable ids are allocated per step instantiation and never reused
    within one search, so two steps never share a variable by accident.
    A named tuple, so that hashing and equality, which sit on the
    hottest paths of unification, run in C; terms compare by value.
    """

    name: str
    vid: int = -1

    @property
    def is_variable(self) -> bool:
        return self.vid >= 0

    @property
    def key(self) -> tuple[int, str]:
        return (self.vid, self.name)

    def __repr__(self) -> str:
        return f"Term({self.name!r}, {self.vid})"

    def __str__(self) -> str:
        return f"{self.name}.{self.vid}" if self.vid >= 0 else self.name


_CONSTANTS: dict[str, Term] = {}


def const(name: str) -> Term:
    """Interned constant term."""
    t = _CONSTANTS.get(name)
    if t is None:
        t = _CONSTANTS[name] = Term(name, -1)
    return t


def var(name: str, vid: int) -> Term:
    if vid < 0:
        raise ValueError("variable ids must be non-negative")
    return Term(name, vid)


class Literal:
    """Possibly negated predicate application over terms."""

    __slots__ = ("positive", "pred", "args", "_hash")

    def __init__(self, positive: bool, pred: str, args: tuple[Term, ...]):
        self.positive = positive
        self.pred = pred
        self.args = args
        self._hash = hash((positive, pred, args))

    def negated(self) -> Literal:
        return Literal(not self.positive, self.pred, self.args)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Literal)
            and other.positive == self.positive
            and other.pred == self.pred
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Literal({self.positive}, {self.pred!r}, {self.args!r})"

    def __str__(self) -> str:
        inner = self.pred if not self.args else f"{self.pred} " + " ".join(map(str, self.args))
        return f"({inner})" if self.positive else f"(not ({inner}))"


def lit(pred: str, *args: Term, positive: bool = True) -> Literal:
    return Literal(positive, pred, tuple(args))


def _pair(a: Term, b: Term) -> tuple[Term, Term]:
    return (a, b) if a.key < b.key else (b, a)


@dataclass(frozen=True)
class BindingStore:
    """Equivalence classes over terms plus disequality constraints.

    `_rep` maps every term mentioned by some constraint directly to its
    class representative (flat, no chains); unmentioned terms are their
    own singleton class.  A class containing a constant always has that
    constant as representative, which makes the no-two-constants
    invariant a single comparison.  `_neq` holds unordered pairs of
    representatives that must never codesignate.
    """

    _rep: dict[Term, Term]
    _neq: frozenset[tuple[Term, Term]]

    def find(self, t: Term) -> Term:
        return self._rep.get(t, t)

    def merge(self, a: Term, b: Term) -> BindingStore | None:
        """Codesignate a and b; None if blocked by a constant clash or a
        noncodesignation constraint."""
        return self._joined(_union((a,), (b,), self))

    def _joined(self, leader: dict[Term, Term] | None) -> BindingStore | None:
        """This store with _union's answer applied: None stays None, {}
        is this store, and each merged representative points at its
        group's leader.  Only the _rep entries of merged classes and the
        disequalities that name a merged representative are rewritten;
        the rest is kept as it is.  A representative that is no key of
        _rep leads a singleton class, such as a new step's fresh
        variable, so when no merged one is a key no entry is scanned."""
        if not leader:
            return None if leader is None else self
        rep = self._rep.copy()
        if not rep.keys().isdisjoint(leader):
            for t, r in self._rep.items():
                if r in leader:
                    rep[t] = leader[r]
        rep.update(leader)
        for keep in leader.values():
            rep[keep] = keep
        neq = self._neq
        if neq and any(x in leader or y in leader for x, y in neq):
            get = leader.get
            neq = frozenset(_pair(get(x, x), get(y, y)) for x, y in neq)
        return BindingStore(rep, neq)

    def require_distinct(self, a: Term, b: Term) -> BindingStore | None:
        """Add a noncodesignation constraint; None if a and b already
        codesignate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        p = _pair(ra, rb)
        if p in self._neq:
            return self
        return BindingStore(self._rep, self._neq | {p})

    def neq_reps_of(self, t: Term) -> list[Term]:
        """Representatives constrained apart from t's class, sorted."""
        r = self.find(t)
        out = [b if a == r else a for a, b in self._neq if r in (a, b)]
        out.sort(key=lambda x: x.key)
        return out


EMPTY_STORE = BindingStore({}, frozenset())


def _union(xs, ys, store: BindingStore) -> dict[Term, Term] | None:
    """The one codesignation test: can every x in xs codesignate with the
    y at its position in ys, all at once, under store?

    A union over the store's class representatives.  None on a constant
    clash or a disequal pair; otherwise a map from each representative
    that stops leading a class to the leader of its new class, which is
    {} when every pair already codesignates.  A group is led by its
    constant, or else by its lowest-keyed member, the representative a
    pair-by-pair merge would keep.  One pair, the common case, takes two
    representative lookups and at most one disequality lookup: the
    leader sorts first, as every stored pair does.  Other lengths run
    the batch loop.  Inlined (no find, no key, no _pair) because costing
    every open condition and classifying every threat runs it."""
    rep = store._rep
    neq = store._neq
    if len(xs) == 1:
        x = xs[0]
        y = ys[0]
        lx = rep.get(x, x)
        ly = rep.get(y, y)
        if lx == ly:
            return {}
        if ly.vid < 0:
            if lx.vid < 0:
                return None
            lx, ly = ly, lx
        elif lx.vid > ly.vid or (lx.vid == ly.vid and lx.name > ly.name):
            lx, ly = ly, lx
        if neq and (lx, ly) in neq:
            return None
        return {ly: lx}
    leader: dict[Term, Term] = {}
    members: dict[Term, list[Term]] = {}
    for x, y in zip(xs, ys):
        rx = rep.get(x, x)
        ry = rep.get(y, y)
        lx = leader.get(rx, rx)
        ly = leader.get(ry, ry)
        if lx == ly:
            continue
        if ly.vid < 0:
            if lx.vid < 0:
                return None
            lx, ly = ly, lx
        elif lx.vid > ly.vid or (lx.vid == ly.vid and lx.name > ly.name):
            lx, ly = ly, lx
        gx = members.get(lx)
        if gx is None:
            gx = members[lx] = [lx]
        gy = members.pop(ly, None) or [ly]
        if neq:
            for a in gx:
                for b in gy:
                    if (a, b) in neq or (b, a) in neq:
                        return None
        gx.extend(gy)
        for t in gy:
            leader[t] = lx
    return leader


def unify(a: Literal, b: Literal, store: BindingStore) -> BindingStore | None:
    """Extend `store` so that a and b codesignate argument-wise.

    Predicates and polarities must match; complementarity is the
    caller's business (flip one side first).  The input store is never
    modified, and is returned itself when nothing needs merging.
    """
    if a.pred != b.pred or a.positive != b.positive or len(a.args) != len(b.args):
        return None
    return store._joined(_union(a.args, b.args, store))


def args_unifiable(a: Literal, b: Literal, store: BindingStore) -> bool:
    """unify(a, b, store) would succeed (same predicate, polarity, and
    arity, with jointly mergeable arguments) — without building the
    extended store."""
    if a.pred != b.pred or a.positive != b.positive or len(a.args) != len(b.args):
        return False
    return _union(a.args, b.args, store) is not None

