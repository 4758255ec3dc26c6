"""Unification and binding-constraint store."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from poclab.terms import (
    EMPTY_STORE,
    Literal,
    args_unifiable,
    const,
    forced_complementary,
    lit,
    unify,
    var,
)

A, B, C = const("A"), const("B"), const("C")
x, y, z = var("?x", 0), var("?y", 1), var("?z", 2)
t, u, v = var("?t", 3), var("?u", 4), var("?v", 5)


def test_unify_identity_leaves_store_unchanged():
    s = unify(lit("p", A, A), lit("p", A, A), EMPTY_STORE)
    assert s is not None
    assert s.classes() == []


def test_unify_blocked_by_noncodesignation():
    s = EMPTY_STORE.require_distinct(x, y)
    assert unify(lit("p", x), lit("p", y), s) is None


def test_unify_binds_positionally():
    # the three-argument pattern: nothing is forced until bound
    s = unify(lit("p", x, y, z), lit("p", t, u, v), EMPTY_STORE)
    assert s is not None
    assert s.forced_equal(x, t) and s.forced_equal(y, u) and s.forced_equal(z, v)
    assert not s.forced_equal(x, u)
    # the original is untouched
    assert not EMPTY_STORE.forced_equal(x, t)


def test_unify_mismatched_predicate_or_polarity():
    assert unify(lit("p", x), lit("q", x), EMPTY_STORE) is None
    assert unify(lit("p", x), lit("p", x, y), EMPTY_STORE) is None
    assert unify(lit("p", x), lit("p", x).negated(), EMPTY_STORE) is None


def test_unify_repeated_variable_forces_constants_equal():
    assert unify(lit("p", A, B), lit("p", x, x), EMPTY_STORE) is None
    s = unify(lit("p", A, A), lit("p", x, x), EMPTY_STORE)
    assert s is not None and s.constant_of(x) == A


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
    assert s is not None and s.noncodesignating(x, t)
    assert s.merge(x, y).require_distinct(x, y) is None  # now codesignate
    assert EMPTY_STORE.require_distinct(A, A) is None  # constant self-disequality
    merged = EMPTY_STORE.merge(x, t)
    assert merged.require_distinct(x, t) is None


def test_distinct_constants_never_unify():
    assert EMPTY_STORE.merge(A, B) is None
    assert EMPTY_STORE.noncodesignating(A, B)
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
            assert s1.forced_equal(p, q) == s2.forced_equal(p, q)


def test_constraints_only_grow():
    s0 = EMPTY_STORE.merge(x, y)
    s1 = s0.require_distinct(x, z)
    s2 = unify(lit("p", t), lit("p", u), s1)
    for s_prev, s_next in ((s0, s1), (s1, s2)):
        for a, b in ((x, y), (y, x)):
            if s_prev.forced_equal(a, b):
                assert s_next.forced_equal(a, b)
        for p in s_prev.neq_pairs():
            assert p in s_next.neq_pairs()


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
                assert store.forced_equal(a, b) == (comp[a] == comp[b]), (
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
    # invariant: no noncodesignation pair inside one class, no class with
    # two distinct constants
    for a, b in store.neq_pairs():
        assert not store.forced_equal(a, b)
    for cls in store.classes():
        constants = [t for t in cls if not t.is_variable]
        assert len(set(constants)) <= 1


def test_term_and_literal_display():
    assert str(A) == "A"
    assert str(x) == "?x.0"
    assert str(lit("on", A, B)) == "(on A B)"
    assert str(lit("on", A, B, positive=False)) == "(not (on A B))"
    assert str(Literal(True, "ready", ())) == "(ready)"
