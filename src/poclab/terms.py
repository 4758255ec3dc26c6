"""Terms, literals, and binding constraints (codesignation / noncodesignation).

Terms are flat: variables and constants only, no function symbols, so
unification never needs an occurs check.  Stores are immutable values;
every constraining operation returns a fresh extended store (or None on
inconsistency) and never touches the original.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    """A constant (vid == -1) or a variable instance (vid >= 0).

    Variable ids are allocated per step instantiation and never reused
    within one search, so two steps never share a variable by accident.
    Hand-rolled rather than a dataclass: equality and hashing sit on the
    hottest paths of unification, so the hash is precomputed and
    equality short-circuits on identity.
    """

    __slots__ = ("name", "vid", "_hash")

    def __init__(self, name: str, vid: int = -1):
        self.name = name
        self.vid = vid
        self._hash = hash((vid, name))

    @property
    def is_variable(self) -> bool:
        return self.vid >= 0

    @property
    def key(self) -> tuple[int, str]:
        return (self.vid, self.name)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Term) and other.vid == self.vid and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

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

    def forced_equal(self, a: Term, b: Term) -> bool:
        return self.find(a) == self.find(b)

    def noncodesignating(self, a: Term, b: Term) -> bool:
        """True when a and b can never codesignate under this store."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if not ra.is_variable and not rb.is_variable:
            return True
        return _pair(ra, rb) in self._neq

    def merge(self, a: Term, b: Term) -> BindingStore | None:
        """Codesignate a and b; None if blocked by a constant clash or a
        noncodesignation constraint."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return self
        if not ra.is_variable and not rb.is_variable:
            return None
        if self._neq and _pair(ra, rb) in self._neq:
            return None
        if not ra.is_variable:
            keep, drop = ra, rb
        elif not rb.is_variable:
            keep, drop = rb, ra
        else:
            keep, drop = (ra, rb) if ra.key < rb.key else (rb, ra)
        rep = {t: (keep if r == drop else r) for t, r in self._rep.items()}
        rep[drop] = keep
        if keep not in rep:
            rep[keep] = keep
        if self._neq:
            neq = frozenset(
                _pair(keep if x == drop else x, keep if y == drop else y)
                for x, y in self._neq
            )
        else:
            neq = self._neq
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

    def constant_of(self, t: Term) -> Term | None:
        r = self.find(t)
        return None if r.is_variable else r

    def classes(self) -> list[tuple[Term, ...]]:
        """Non-singleton classes, members sorted, classes sorted by head."""
        groups: dict[Term, list[Term]] = {}
        for t, r in self._rep.items():
            groups.setdefault(r, []).append(t)
        out = []
        for r, members in groups.items():
            cls = sorted(set(members) | {r}, key=lambda t: t.key)
            if len(cls) > 1:
                out.append(tuple(cls))
        out.sort(key=lambda c: c[0].key)
        return out

    def neq_pairs(self) -> list[tuple[Term, Term]]:
        return sorted(self._neq, key=lambda p: (p[0].key, p[1].key))

    def neq_reps_of(self, t: Term) -> list[Term]:
        """Representatives constrained apart from t's class, sorted."""
        r = self.find(t)
        out = [b if a == r else a for a, b in self._neq if r in (a, b)]
        out.sort(key=lambda x: x.key)
        return out

    def describe(self) -> str:
        cls = " ".join("{" + "=".join(map(str, c)) + "}" for c in self.classes())
        neq = " ".join(f"{a}!={b}" for a, b in self.neq_pairs())
        return f"classes: {cls or '-'} | neq: {neq or '-'}"


EMPTY_STORE = BindingStore({}, frozenset())


def unify(a: Literal, b: Literal, store: BindingStore) -> BindingStore | None:
    """Extend `store` so that a and b codesignate argument-wise.

    Predicates and polarities must match; complementarity is the
    caller's business (flip one side first).  The input store is never
    modified.
    """
    if a.pred != b.pred or a.positive != b.positive or len(a.args) != len(b.args):
        return None
    s: BindingStore | None = store
    for x, y in zip(a.args, b.args):
        s = s.merge(x, y)
        if s is None:
            return None
    return s


def _pairs_unifiable(pairs, store: BindingStore) -> bool:
    """Could all pairs be merged simultaneously?  Runs a throwaway union
    over current representatives without allocating stores; the class
    leader is kept on the constant whenever a group contains one so a
    second constant is caught immediately."""
    find = store.find
    neq = store._neq
    leader: dict[Term, Term] = {}
    members: dict[Term, list[Term]] = {}
    for x, y in pairs:
        rx, ry = find(x), find(y)
        lx = leader.get(rx, rx)
        ly = leader.get(ry, ry)
        if lx == ly:
            continue
        if not lx.is_variable and not ly.is_variable:
            return False
        if not ly.is_variable:
            lx, ly = ly, lx
        gx = members.get(lx)
        if gx is None:
            gx = members[lx] = [lx]
        gy = members.pop(ly, None) or [ly]
        if neq:
            for a in gx:
                for b in gy:
                    if _pair(a, b) in neq:
                        return False
        gx.extend(gy)
        for t in gy:
            leader[t] = lx
    return True


def args_unifiable(a: Literal, b: Literal, store: BindingStore) -> bool:
    """unify(a, b, store) would succeed (same predicate, polarity, and
    arity, with jointly mergeable arguments) — without building the
    extended store."""
    if a.pred != b.pred or a.positive != b.positive or len(a.args) != len(b.args):
        return False
    return _pairs_unifiable(zip(a.args, b.args), store)


def forced_complementary(e: Literal, f: Literal, store: BindingStore) -> bool:
    """The nonseparable-threat test: e and the negation of f carry the
    same predicate and every argument pair is already forced equal."""
    if e.pred != f.pred or e.positive == f.positive or len(e.args) != len(f.args):
        return False
    return all(store.forced_equal(x, y) for x, y in zip(e.args, f.args))
