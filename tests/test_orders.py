"""Monomial orders: frozen comparisons, axioms, reference comparators."""

import pickle
import random

import pytest

from grodeg import Monomial, MonomialOrder, buchberger, standard_context

from conftest import (
    ctx_n,
    ctx_xyz,
    random_monomial,
    random_poly,
    ref_degrevlex_cmp,
    ref_lex_cmp,
)


def key_cmp(order, a, b):
    """-1, 0 or 1 as the sort key of ``a`` is below, equal to or above that of ``b``."""
    ka, kb = order.sort_key(a), order.sort_key(b)
    return (ka > kb) - (ka < kb)


def mono(ctx, **exps):
    e = [0] * ctx.n
    for name, k in exps.items():
        e[ctx.index_of(name)] = k
    return Monomial(tuple(e))


class TestFrozenComparisons:
    def test_degrevlex_six_vars(self):
        ctx = ctx_n(6)
        drl = MonomialOrder.degrevlex(ctx)
        a = mono(ctx, x1=1, x5=1)
        b = mono(ctx, x2=1, x4=1)
        # same degree; revlex looks at the smallest variable first, and
        # x1*x5 uses x5 while x2*x4 does not, so x1*x5 is smaller
        assert key_cmp(drl, a, b) == -1
        assert key_cmp(drl, b, a) == 1

    def test_lex_three_vars(self):
        ctx = ctx_xyz()
        lex = MonomialOrder.lex(ctx)
        assert key_cmp(lex, mono(ctx, x=1, y=1, z=1), mono(ctx, y=3)) == 1
        assert key_cmp(lex, mono(ctx, z=5), mono(ctx, y=1)) == -1

    def test_degrevlex_three_vars(self):
        ctx = ctx_xyz()
        drl = MonomialOrder.degrevlex(ctx)
        assert key_cmp(drl, mono(ctx, x=2, z=1), mono(ctx, x=1, y=2)) == -1
        assert key_cmp(drl, mono(ctx, x=1), mono(ctx, z=2)) == -1  # degree first

    def test_reflexive(self):
        ctx = ctx_xyz()
        m = mono(ctx, x=2, y=1)
        for order in (MonomialOrder.lex(ctx), MonomialOrder.degrevlex(ctx)):
            assert key_cmp(order, m, m) == 0

    def test_weighted_tiebreak(self):
        ctx = standard_context(("x", "y"))
        w = MonomialOrder.weighted(ctx, [(1, 2)])
        # x^2 and y have equal weight 2; raw-exponent tiebreak favors x^2
        assert key_cmp(w, mono(ctx, x=2), mono(ctx, y=1)) == 1

    def test_degrevlex_respects_grading(self):
        ctx = standard_context(("x", "y"), grading=(1, 2))
        drl = MonomialOrder.degrevlex(ctx)
        assert key_cmp(drl, mono(ctx, y=1), mono(ctx, x=1)) == 1  # degree 2 vs 1
        assert key_cmp(drl, mono(ctx, y=1), mono(ctx, x=2)) == -1  # tie, revlex


class TestReferenceComparators:
    def test_lex_and_degrevlex_match_reference(self):
        rng = random.Random(11)
        ctx = ctx_n(5)
        for _ in range(500):
            perm = list(range(5))
            rng.shuffle(perm)
            perm = tuple(perm)
            a, b = random_monomial(rng, 5, 6), random_monomial(rng, 5, 6)
            lex = MonomialOrder.lex(ctx, perm=perm)
            drl = MonomialOrder.degrevlex(ctx, perm=perm)
            assert key_cmp(lex, a, b) == ref_lex_cmp(a.exps, b.exps, perm)
            assert key_cmp(drl, a, b) == ref_degrevlex_cmp(a.exps, b.exps, perm)

    def test_degrevlex_reference_with_grading(self):
        rng = random.Random(12)
        grading = (1, 3, 2, 1)
        ctx = standard_context(("a", "b", "c", "d"), grading=grading)
        drl = MonomialOrder.degrevlex(ctx)
        perm = (0, 1, 2, 3)
        for _ in range(300):
            a, b = random_monomial(rng, 4, 5), random_monomial(rng, 4, 5)
            assert key_cmp(drl, a, b) == ref_degrevlex_cmp(a.exps, b.exps, perm, grading)

    def test_matrix_encodings_of_lex_and_degrevlex(self):
        rng = random.Random(13)
        ctx = ctx_xyz()
        lex_m = MonomialOrder.matrix(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        drl_m = MonomialOrder.matrix(ctx, [(1, 1, 1), (0, 0, -1), (0, -1, 0)])
        lex = MonomialOrder.lex(ctx)
        drl = MonomialOrder.degrevlex(ctx)
        for _ in range(300):
            a, b = random_monomial(rng, 3, 6), random_monomial(rng, 3, 6)
            assert key_cmp(lex_m, a, b) == key_cmp(lex, a, b)
            assert key_cmp(drl_m, a, b) == key_cmp(drl, a, b)


def all_test_orders(ctx):
    out = [
        MonomialOrder.lex(ctx),
        MonomialOrder.degrevlex(ctx),
        MonomialOrder.lex(ctx, perm=tuple(reversed(range(ctx.n)))),
        MonomialOrder.weighted(ctx, [tuple(range(1, ctx.n + 1))]),
    ]
    rows = [[1] * ctx.n]
    for i in range(ctx.n - 1):
        row = [0] * ctx.n
        row[ctx.n - 1 - i] = -1
        rows.append(row)
    out.append(MonomialOrder.matrix(ctx, rows))
    return out


class TestOrderAxioms:
    def test_total_multiplicative_global(self):
        rng = random.Random(17)
        ctx = ctx_n(4)
        one = Monomial.one(4)
        for order in all_test_orders(ctx):
            for _ in range(150):
                a = random_monomial(rng, 4, 5)
                b = random_monomial(rng, 4, 5)
                c = random_monomial(rng, 4, 3)
                cab = key_cmp(order, a, b)
                # totality and antisymmetry
                assert cab == -key_cmp(order, b, a)
                assert (cab == 0) == (a == b)
                # multiplication by any monomial preserves the comparison
                assert key_cmp(order, a.mul(c), b.mul(c)) == cab
                # global: 1 is the unique minimum
                if a != one:
                    assert key_cmp(order, a, one) == 1

    def test_transitive_on_triples(self):
        rng = random.Random(19)
        ctx = ctx_n(3)
        for order in all_test_orders(ctx):
            for _ in range(100):
                ms = sorted(
                    (random_monomial(rng, 3, 5) for _ in range(3)),
                    key=order.sort_key,
                )
                assert key_cmp(order, ms[0], ms[2]) <= 0
                assert key_cmp(order, ms[0], ms[1]) <= 0
                assert key_cmp(order, ms[1], ms[2]) <= 0

    def test_degrevlex_minimizes_smallest_variable_exponent(self):
        """Among the terms of a homogeneous polynomial, the degrevlex lead
        has the minimal exponent on the order-smallest variable."""
        rng = random.Random(23)
        ctx = ctx_n(4)
        for _ in range(200):
            perm = list(range(4))
            rng.shuffle(perm)
            drl = MonomialOrder.degrevlex(ctx, perm=tuple(perm))
            s = perm[-1]  # the order-smallest variable
            deg = rng.randint(1, 5)
            monos = set()
            while len(monos) < rng.randint(2, 5):
                exps = [0] * 4
                for _ in range(deg):
                    exps[rng.randrange(4)] += 1
                monos.add(Monomial(tuple(exps)))
            lead = max(monos, key=drl.sort_key)
            assert lead.exps[s] == min(m.exps[s] for m in monos)


class TestValidation:
    def test_bad_permutation(self):
        ctx = ctx_xyz()
        with pytest.raises(ValueError, match="lex order needs a permutation of all 3"):
            MonomialOrder.lex(ctx, perm=(0, 1))
        with pytest.raises(ValueError, match="degrevlex order needs a permutation"):
            MonomialOrder.degrevlex(ctx, perm=(0, 0, 1))
        with pytest.raises(ValueError, match="needs a permutation"):
            MonomialOrder("lex", ctx)  # bare constructor has no default

    def test_weighted_rows(self):
        ctx = ctx_xyz()
        with pytest.raises(ValueError, match="rows must be nonnegative"):
            MonomialOrder.weighted(ctx, [(1, -1, 0)])
        with pytest.raises(ValueError, match="needs at least one weight row"):
            MonomialOrder.weighted(ctx, [])
        with pytest.raises(ValueError, match="row length must match variable count"):
            MonomialOrder.weighted(ctx, [(1, 2)])

    def test_matrix_rows(self):
        ctx = standard_context(("x", "y"))
        with pytest.raises(ValueError, match="not total"):
            MonomialOrder.matrix(ctx, [(1, 1), (2, 2)])
        with pytest.raises(ValueError, match="not global: variable y"):
            MonomialOrder.matrix(ctx, [(1, -1), (0, -1)])

    def test_matrix_rows_with_non_unit_pivots(self):
        ctx = standard_context(("x", "y"))
        assert MonomialOrder.matrix(ctx, [(2, 3), (4, 5)]).render() == "matrix 2,3 ; 4,5"
        with pytest.raises(ValueError, match="not total"):
            MonomialOrder.matrix(ctx, [(2, 4), (3, 6)])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown order kind 'grlex'"):
            MonomialOrder("grlex", ctx_xyz(), perm=(0, 1, 2))


class TestAccessorsAndRender:
    def test_variables_descending(self):
        ctx = ctx_xyz()
        assert MonomialOrder.lex(ctx).variables_descending() == (0, 1, 2)
        assert MonomialOrder.lex(ctx, perm=(1, 2, 0)).variables_descending() == (1, 2, 0)
        assert MonomialOrder.degrevlex(ctx, perm=(2, 0, 1)).variables_descending() == (2, 0, 1)
        graded = standard_context(("x", "y", "z"), grading=(1, 3, 2))
        assert MonomialOrder.degrevlex(graded).variables_descending() == (1, 2, 0)  # degree first
        w = MonomialOrder.weighted(standard_context(("x", "y")), [(1, 2)])
        assert w.variables_descending() == (1, 0)
        # x and z tie on weight 1; the raw-exponent tiebreak puts x first
        assert MonomialOrder.weighted(ctx, [(1, 2, 1)]).variables_descending() == (1, 0, 2)
        for ctx, order in every_kind():
            desc = order.variables_descending()
            assert sorted(desc) == list(range(ctx.n))
            units = [Monomial.variable(i, ctx.n).exps for i in desc]
            assert all(ref_cmp(order, a, b) == 1 for a, b in zip(units, units[1:])), order

    def test_render(self):
        ctx = ctx_xyz()
        assert MonomialOrder.lex(ctx).render() == "lex x>y>z"
        assert MonomialOrder.degrevlex(ctx, perm=(2, 1, 0)).render() == "degrevlex z>y>x"
        two = standard_context(("x", "y"))
        assert MonomialOrder.matrix(two, [(1, 1), (0, -1)]).render() == "matrix 1,1 ; 0,-1"
        assert MonomialOrder.weighted(two, [(3, 1)]).render() == "weighted 3,1"

    def test_equality_and_pickle(self):
        ctx = ctx_xyz()
        a = MonomialOrder.degrevlex(ctx)
        b = MonomialOrder.degrevlex(ctx)
        assert a == b and hash(a) == hash(b)
        assert a != MonomialOrder.lex(ctx)
        assert a != MonomialOrder.degrevlex(ctx, perm=(2, 1, 0))
        back = pickle.loads(pickle.dumps(a))
        assert back == a
        m = random_monomial(random.Random(1), 3, 4)
        assert back.sort_key(m) == a.sort_key(m)

        # every kind, with the compiled key rebuilt on the far side of a pickle,
        # also when the order travels inside a polynomial or a basis
        rng = random.Random(2)
        for ctx, order in every_kind():
            f = random_poly(rng, ctx, order, 5, 4)
            B = buchberger([f], order)
            back_order = pickle.loads(pickle.dumps(order))
            back_f = pickle.loads(pickle.dumps(f))
            back_B = pickle.loads(pickle.dumps(B))
            assert back_order == order and back_f.order == order and back_B.order == order
            assert back_f.terms == f.terms and back_B.polys == B.polys
            for _ in range(20):
                m = random_monomial(rng, ctx.n, 5)
                key = order.sort_key(m)
                assert back_order.sort_key(m) == key
                assert back_f.order.sort_key(m) == key
                assert back_B.order.sort_key(m) == key
                assert all(g.order.sort_key(m) == key for g in back_B.polys)


def every_kind():
    """(context, order) for each kind, on one variable and on several, with a
    non-standard grading for degrevlex."""
    one = standard_context(("x",))
    graded_one = standard_context(("x",), grading=(3,))
    four = ctx_n(4)
    graded = standard_context(("a", "b", "c", "d"), grading=(1, 3, 2, 1))
    return [
        (one, MonomialOrder.lex(one)),
        (one, MonomialOrder.degrevlex(one)),
        (graded_one, MonomialOrder.degrevlex(graded_one)),
        (one, MonomialOrder.weighted(one, [(2,)])),
        (one, MonomialOrder.matrix(one, [(5,)])),
        (four, MonomialOrder.lex(four)),
        (four, MonomialOrder.lex(four, perm=(2, 0, 3, 1))),
        (four, MonomialOrder.degrevlex(four)),
        (four, MonomialOrder.degrevlex(four, perm=(3, 1, 0, 2))),
        (graded, MonomialOrder.degrevlex(graded)),
        (graded, MonomialOrder.degrevlex(graded, perm=(1, 3, 2, 0))),
        (four, MonomialOrder.weighted(four, [(0, 2, 1, 0), (1, 0, 0, 3)])),
        (four, MonomialOrder.matrix(four, [(1, 1, 1, 1), (0, 0, 0, -1), (0, 0, -1, 0), (0, -1, 0, 0)])),
        (four, MonomialOrder.matrix(four, [(2, 3, 1, 1), (1, 0, 0, 0), (0, 1, -1, 0), (0, 0, 1, -2)])),
    ]


def ref_rows_cmp(a, b, rows, tiebreak):
    """Compare the row dot products in turn, then (weighted) the raw exponents."""
    for row in rows:
        da = sum(w * x for w, x in zip(row, a))
        db = sum(w * x for w, x in zip(row, b))
        if da != db:
            return 1 if da > db else -1
    if tiebreak:
        return ref_lex_cmp(a, b, range(len(a)))
    return 0


def ref_cmp(order, a, b):
    if order.kind == "lex":
        return ref_lex_cmp(a, b, order.perm)
    if order.kind == "degrevlex":
        return ref_degrevlex_cmp(a, b, order.perm, order.ctx.grading)
    return ref_rows_cmp(a, b, order.rows, order.kind == "weighted")


class TestCompiledKeys:
    def test_every_kind_matches_its_definition(self):
        rng = random.Random(29)
        for ctx, order in every_kind():
            monos = [random_monomial(rng, ctx.n, 6) for _ in range(120)]
            monos.append(Monomial.one(ctx.n))
            for a, b in zip(monos, reversed(monos)):
                want = ref_cmp(order, a.exps, b.exps)
                assert key_cmp(order, a, b) == want, (order, a, b)
                assert order.exps_key(a.exps) == order.sort_key(a)
