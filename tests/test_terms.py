"""Unification and binding-constraint store."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poclab.domains import SchemaLiteral
from poclab.flaws import schema_effect_unifies
from poclab.terms import (
    EMPTY_STORE,
    Literal,
    Term,
    _pair,
    _union,
    args_unifiable,
    const,
    lit,
    unify,
    var,
)
from helpers import forced_complementary, instantiate_literal

A, B, C = const("A"), const("B"), const("C")
x, y, z = var("?x", 0), var("?y", 1), var("?z", 2)
t, u, v = var("?t", 3), var("?u", 4), var("?v", 5)


def test_unify_identity_leaves_store_unchanged():
    s = unify(lit("p", A, A), lit("p", A, A), EMPTY_STORE)
    assert s is EMPTY_STORE


def test_unify_blocked_by_noncodesignation():
    s = EMPTY_STORE.require_distinct(x, y)
    assert unify(lit("p", x), lit("p", y), s) is None


def test_unify_binds_positionally():
    # the three-argument pattern: nothing is forced until bound
    s = unify(lit("p", x, y, z), lit("p", t, u, v), EMPTY_STORE)
    assert s is not None
    assert s.find(x) == s.find(t) and s.find(y) == s.find(u) and s.find(z) == s.find(v)
    assert s.find(x) != s.find(u)
    # the original is untouched
    assert EMPTY_STORE.find(x) != EMPTY_STORE.find(t)


def test_unify_mismatched_predicate_or_polarity():
    assert unify(lit("p", x), lit("q", x), EMPTY_STORE) is None
    assert unify(lit("p", x), lit("p", x, y), EMPTY_STORE) is None
    assert unify(lit("p", x), lit("p", x).negated(), EMPTY_STORE) is None


def test_unify_repeated_variable_forces_constants_equal():
    assert unify(lit("p", A, B), lit("p", x, x), EMPTY_STORE) is None
    s = unify(lit("p", A, A), lit("p", x, x), EMPTY_STORE)
    assert s is not None and s.find(x) == A


def test_forced_complementary_ground():
    assert forced_complementary(lit("p", A, positive=False), lit("p", A), EMPTY_STORE)
    assert not forced_complementary(lit("p", A, positive=False), lit("p", B), EMPTY_STORE)


def test_forced_complementary_by_binding():
    s = EMPTY_STORE.merge(y, z)
    assert forced_complementary(lit("p", x, y), lit("p", x, z, positive=False), s)
    # without the binding the unification is not forced
    assert not forced_complementary(lit("p", x, y), lit("p", x, z, positive=False), EMPTY_STORE)


def test_forced_complementary_unbound_is_not_forced():
    assert not forced_complementary(lit("p", x), lit("p", y, positive=False), EMPTY_STORE)


def test_forced_complementary_implies_unifiable():
    s = EMPTY_STORE.merge(y, z)
    e, f = lit("p", x, y), lit("p", x, z, positive=False)
    assert forced_complementary(e, f, s)
    assert unify(e, f.negated(), s) is not None


def test_add_noncodesignation():
    s = EMPTY_STORE.require_distinct(x, t)
    assert s is not None and s.merge(x, t) is None
    assert s.merge(x, y).require_distinct(x, y) is None  # now codesignate
    assert EMPTY_STORE.require_distinct(A, A) is None  # constant self-disequality
    merged = EMPTY_STORE.merge(x, t)
    assert merged.require_distinct(x, t) is None


def test_distinct_constants_never_unify():
    assert EMPTY_STORE.merge(A, B) is None
    s = EMPTY_STORE.require_distinct(A, B)  # redundant but allowed
    assert s is not None


def test_merge_through_constant_conflict():
    s = EMPTY_STORE.merge(x, A)
    s = s.merge(y, B)
    assert s.merge(x, y) is None  # would join A and B


def test_unify_commutative():
    a, b = lit("p", x, y, A), lit("p", t, t, z)
    s1, s2 = unify(a, b, EMPTY_STORE), unify(b, a, EMPTY_STORE)
    assert (s1 is None) == (s2 is None)
    if s1 is not None:
        pairs = [(x, t), (y, t), (x, y), (z, A)]
        for p, q in pairs:
            assert (s1.find(p) == s1.find(q)) == (s2.find(p) == s2.find(q))


def test_constraints_only_grow():
    s0 = EMPTY_STORE.merge(x, y)
    s1 = s0.require_distinct(x, z)
    s2 = unify(lit("p", t), lit("p", u), s1)
    for s_prev, s_next in ((s0, s1), (s1, s2)):
        for a, b in ((x, y), (y, x)):
            if s_prev.find(a) == s_prev.find(b):
                assert s_next.find(a) == s_next.find(b)
        assert s_prev._neq <= s_next._neq


def test_args_unifiable_matches_unify():
    cases = [
        (lit("p", x, y), lit("p", t, u)),
        (lit("p", A, B), lit("p", x, x)),
        (lit("p", A, A), lit("p", x, x)),
        (lit("p", x), lit("q", x)),
        (lit("p", x, B), lit("p", B, x)),
    ]
    for a, b in cases:
        assert args_unifiable(a, b, EMPTY_STORE) == (unify(a, b, EMPTY_STORE) is not None)
    s = EMPTY_STORE.require_distinct(x, y)
    assert args_unifiable(lit("p", x), lit("p", y), s) is False


def _random_store_and_oracle(rng, n_vars=8, n_constants=3, ops=10):
    """Build a store by random merges/disequalities, mirroring every
    *successful* merge in a naive union of pairwise-connected groups."""
    terms = [var(f"?v{i}", i) for i in range(n_vars)]
    terms += [const(c) for c in "PQR"[:n_constants]]
    store = EMPTY_STORE
    merged_pairs = []
    for _ in range(ops):
        a, b = rng.choice(terms), rng.choice(terms)
        if rng.random() < 0.7:
            nxt = store.merge(a, b)
            if nxt is not None:
                store = nxt
                merged_pairs.append((a, b))
        else:
            nxt = store.require_distinct(a, b)
            if nxt is not None:
                store = nxt
    return terms, store, merged_pairs


def _naive_components(terms, merged_pairs):
    comp = {t: t for t in terms}

    def root(t):
        while comp[t] != t:
            t = comp[t]
        return t

    for a, b in merged_pairs:
        comp[root(a)] = root(b)
    return {t: root(t) for t in terms}


def test_forced_equality_matches_naive_closure_oracle():
    rng = random.Random(20240811)
    for _ in range(1000):
        terms, store, merged = _random_store_and_oracle(rng)
        comp = _naive_components(terms, merged)
        for i, a in enumerate(terms):
            for b in terms[i + 1 :]:
                assert (store.find(a) == store.find(b)) == (comp[a] == comp[b]), (
                    f"{a} vs {b}: store disagrees with pairwise closure"
                )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_never_joins_disequal_classes(data):
    terms = [var(f"?v{i}", i) for i in range(6)] + [const("P"), const("Q")]
    store = EMPTY_STORE
    for _ in range(data.draw(st.integers(0, 12))):
        a = data.draw(st.sampled_from(terms))
        b = data.draw(st.sampled_from(terms))
        if data.draw(st.booleans()):
            nxt = store.merge(a, b)
        else:
            nxt = store.require_distinct(a, b)
        if nxt is not None:
            store = nxt
    # invariant: no noncodesignation pair inside one class, and every
    # constant leads its own class, so no class holds two constants
    for a, b in store._neq:
        assert store.find(a) != store.find(b)
    for c in terms[6:]:
        assert store.find(c) == c


# ?w0 shares ?v0's vid under another name, so the kernel's name
# tie-break between equal vids is reached in both of its paths.
_POOL = [var(f"?v{i}", i) for i in range(6)] + [var("?w0", 0), const("P"), const("Q"), const("R")]


def _draw_store(data):
    """A store built from random merges and disequalities over _POOL."""
    store = EMPTY_STORE
    for _ in range(data.draw(st.integers(0, 12))):
        a = data.draw(st.sampled_from(_POOL))
        b = data.draw(st.sampled_from(_POOL))
        if data.draw(st.booleans()):
            nxt = store.merge(a, b)
        else:
            nxt = store.require_distinct(a, b)
        if nxt is not None:
            store = nxt
    return store


def _draw_args(data, elements, n):
    return tuple(data.draw(st.lists(st.sampled_from(elements), min_size=n, max_size=n)))


def _model_classes(store, pairs):
    """The naive reference for the union kernel, built only from the
    store's public views over _POOL, the terms every drawn store is
    built from: a partition of terms plus disequal class pairs, merged
    one pair at a time.  None when the pairs cannot all codesignate;
    else (each term's class, the disequal class pairs)."""
    groups: dict = {}
    for t in _POOL:
        groups.setdefault(store.find(t), set()).add(t)
    cls = {t: frozenset(g) for g in groups.values() for t in g}

    def of(t):
        return cls.get(t, frozenset((t,)))

    apart = {frozenset((of(t), of(o))) for t in _POOL for o in store.neq_reps_of(t)}
    for x, y in pairs:
        cx, cy = of(x), of(y)
        if cx == cy:
            continue
        if frozenset((cx, cy)) in apart:
            return None
        joined = cx | cy
        if len([t for t in joined if not t.is_variable]) > 1:
            return None
        for t in joined:
            cls[t] = joined
        apart = {frozenset(joined if c in (cx, cy) else c for c in pair) for pair in apart}
    return cls, apart


def _model_leader(c):
    """A class's representative: its constant, else its lowest-keyed member."""
    return next((m for m in c if not m.is_variable), None) or min(c, key=lambda m: m.key)


def _model_unify(store, pairs):
    """Every term's expected representative in the unified store, or
    None when the pairs cannot all codesignate."""
    model = _model_classes(store, pairs)
    if model is None:
        return None
    cls = model[0]
    terms = set(cls) | {t for pair in pairs for t in pair}
    return {t: _model_leader(cls.get(t, frozenset((t,)))) for t in terms}


def _model_store(store, pairs):
    """The unified store rebuilt from the model, as its (_rep, _neq):
    every member of a class of two or more mapped to the class's
    representative, and each disequal class pair as a pair of
    representatives.  None when the pairs cannot all codesignate."""
    model = _model_classes(store, pairs)
    if model is None:
        return None
    cls, apart = model
    rep = {t: _model_leader(c) for t, c in cls.items() if len(c) > 1}
    neq = frozenset(_pair(*map(_model_leader, pair)) for pair in apart)
    return rep, neq


def _check_against_model(a, b, store):
    """args_unifiable, unify and the unified store's find, each against
    _model_unify."""
    expected = _model_unify(store, list(zip(a.args, b.args)))
    assert args_unifiable(a, b, store) == (expected is not None), (a, b, store)
    unified = unify(a, b, store)
    assert (unified is None) == (expected is None), (a, b, store)
    if unified is not None:
        assert {t: unified.find(t) for t in expected} == expected, (a, b, store)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_args_unifiable_agrees_with_unify(data):
    # A small pool, so arguments repeat and constants mix in.  Every
    # ordered pair of four literals is tried: a disequality is stored
    # one way round, and a kernel that looks it up only one way round
    # is caught when the pair reaches it the other way round.  unify
    # and args_unifiable share one kernel, so both are also checked
    # against the naive model.
    store = _draw_store(data)
    n = data.draw(st.integers(0, 4))
    lits = [Literal(True, "p", _draw_args(data, _POOL, n)) for _ in range(4)]
    for a in lits:
        for b in lits:
            assert args_unifiable(a, b, store) == (unify(a, b, store) is not None), (a, b, store)
            _check_against_model(a, b, store)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_and_unify_equal_a_rebuild_of_the_model(data):
    # The whole store a merge or a unify returns, not only the find of
    # the terms it touched: each entry of _rep and each disequality is
    # compared with the model's rebuild, with disequalities present.
    store = _draw_store(data)
    for _ in range(data.draw(st.integers(1, 3))):
        store = store.require_distinct(data.draw(st.sampled_from(_POOL)), data.draw(st.sampled_from(_POOL))) or store
    assume(store._neq)
    a, b = data.draw(st.sampled_from(_POOL)), data.draw(st.sampled_from(_POOL))
    merged = store.merge(a, b)
    want = _model_store(store, [(a, b)])
    assert (merged and (merged._rep, merged._neq)) == want, (a, b, store)
    n = data.draw(st.integers(0, 4))
    la, lb = (Literal(True, "p", _draw_args(data, _POOL, n)) for _ in range(2))
    unified = unify(la, lb, store)
    want = _model_store(store, list(zip(la.args, lb.args)))
    assert (unified and (unified._rep, unified._neq)) == want, (la, lb, store)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_one_pair_path_equals_the_batch_loop_and_the_model(data):
    # _union decides one pair on its own path and every other length in
    # the batch loop; (x, x) against (y, y) is the same question asked
    # of the loop, whose second pair is already joined.  Both must give
    # the same verdict and the same {loser: leader} map as the model,
    # for every ordered pair of the pool, on stores that hold constants,
    # merged classes and disequalities.
    store = _draw_store(data)
    for _ in range(data.draw(st.integers(0, 3))):
        store = store.require_distinct(data.draw(st.sampled_from(_POOL)), data.draw(st.sampled_from(_POOL))) or store
    assert _union((), (), store) == {}
    for a in _POOL:
        for b in _POOL:
            got = _union((a,), (b,), store)
            assert got == _union((a, a), (b, b), store), (a, b, store)
            model = _model_classes(store, [(a, b)])
            if model is None:
                assert got is None, (a, b, store)
                continue
            lead = _model_leader(model[0].get(a, frozenset((a,))))
            assert got == {r: lead for r in (store.find(a), store.find(b)) if r != lead}, (a, b, store)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_schema_effect_unifies_agrees_with_a_fresh_instance(data):
    store = _draw_store(data)
    n = data.draw(st.integers(0, 4))
    cond = Literal(True, "p", _draw_args(data, _POOL, n))
    eff = SchemaLiteral(True, "p", _draw_args(data, ["?a", "?b", "?c", "P", "Q", "S"], n))
    fresh = {p: var(p, 100 + i) for i, p in enumerate(("?a", "?b", "?c"))}
    instance = instantiate_literal(eff, fresh)
    expected = unify(cond, instance, store) is not None
    assert schema_effect_unifies(cond, eff, store) == expected
    _check_against_model(cond, instance, store)


def test_term_equality_and_hash_follow_name_and_vid():
    a, b = var("?q", 7), var("?q", 7)
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert var("?q", 7) != var("?q", 8) and var("?q", 7) != var("?r", 7)
    assert Term("A") == const("A") and hash(Term("A")) == hash(const("A"))
    assert (Term("A").name, Term("A").vid) == ("A", -1)
    assert const("A") is const("A")  # interned


def test_term_order_and_display():
    terms = [var("?b", 2), const("B"), var("?a", 2), const("A"), var("?z", 0)]
    assert [str(t) for t in sorted(terms, key=lambda t: t.key)] == ["A", "B", "?z.0", "?a.2", "?b.2"]
    assert var("?x", 3).key == (3, "?x") and const("A").key == (-1, "A")
    assert var("?x", 0).is_variable and not const("A").is_variable
    assert repr(var("?x", 3)) == "Term('?x', 3)" and repr(const("A")) == "Term('A', -1)"


def test_term_and_literal_display():
    assert str(A) == "A"
    assert str(x) == "?x.0"
    assert str(lit("on", A, B)) == "(on A B)"
    assert str(lit("on", A, B, positive=False)) == "(not (on A B))"
    assert str(Literal(True, "ready", ())) == "(ready)"
