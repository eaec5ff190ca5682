"""Exact ranks (one sparse elimination) and the one helper that clears
rationals to integers."""

import random
from fractions import Fraction

import pytest

from grodeg import QQ, PrimeField
from grodeg.linalg import primitive_integers, rank_exact, rank_int, rank_mod_p

from conftest import ref_rank_fraction, ref_rank_mod_p


class TestPrimitiveIntegers:
    def test_clears_denominators_and_content(self):
        assert primitive_integers([Fraction(1, 2), Fraction(-3, 4), 5]) == [2, -3, 20]
        assert primitive_integers([6, -9, 0]) == [2, -3, 0]
        assert primitive_integers([0, 0]) == [0, 0]
        assert primitive_integers([]) == []

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([4, -6, 10, 0], [2, -3, 5, 0]),
            ([Fraction(1, 3), Fraction(-1, 6), Fraction(5, 2)], [2, -1, 15]),
            ([3, Fraction(3, 4), 0, Fraction(-9, 2)], [4, 1, 0, -6]),
        ],
        ids=["int", "fraction", "mixed"],
    )
    def test_reads_ints_and_fractions_as_they_are(self, row, expected, monkeypatch):
        made = []
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        assert primitive_integers(row) == expected
        assert primitive_integers(iter(row)) == expected
        assert made == []

    def test_bad_prime(self):
        with pytest.raises(ValueError, match="bad prime 7: denominator of coefficient 3/14 vanishes"):
            primitive_integers([1, Fraction(3, 14)], 7)
        assert primitive_integers([1, Fraction(3, 14)], 5) == [14, 3]

    def test_rank_over_qq_matches_reference(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(rng.randint(1, 4))
            ]
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
            assert rank_exact(rows, QQ) == ref_rank_fraction(rows)


def _as_dicts(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _random_matrices(rng):
    """Rank-deficient products, matrices whose pivots are never units, and
    rows with big entries (one of them a combination of the others)."""
    for _ in range(40):
        nrows, ncols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(k)]
        yield [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    no_units = (0, 0, 2, -2, 3, -3, 4, 6, -9, 10)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.choice(no_units) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(20):
        nrows, ncols = rng.randint(2, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, rng.randint(-10**30, 10**30))) for _ in range(ncols)] for _ in range(nrows - 1)]
        a, b = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        rng.shuffle(rows)
        yield rows


class TestSparseRank:
    """The one elimination behind rank_int, rank_mod_p and rank_exact,
    against plain Gaussian elimination over QQ and GF(p)."""

    def test_matches_reference_ranks(self):
        rng = random.Random(2001)
        deficient = 0
        for rows in _random_matrices(rng):
            sparse = _as_dicts(rows)
            kept = [dict(r) for r in sparse]
            expected = ref_rank_fraction(rows)
            deficient += expected < min(len(rows), len(rows[0]))
            assert rank_int(rows) == rank_int(sparse) == expected, rows
            assert rank_exact(rows, QQ) == rank_exact(sparse, QQ) == expected, rows
            for p in (2, 3, 5):
                expected_p = ref_rank_mod_p(rows, p)
                assert rank_mod_p(rows, p) == rank_mod_p(sparse, p) == expected_p, (rows, p)
                assert rank_exact(sparse, PrimeField(p)) == expected_p, (rows, p)
            assert sparse == kept  # the caller's rows are left as they were
        assert deficient > 20

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([], 0),
            ([{}], 0),
            ([[0, 0], [0, 0]], 0),
            ([[2, 3], [4, 5]], 2),
            ([[2, 4], [3, 6]], 1),
            ([{0: 6, 2: 4}, {0: 9, 2: 6}, {1: 4}], 2),
        ],
    )
    def test_small_cases(self, rows, rank):
        assert rank_int(rows) == rank
