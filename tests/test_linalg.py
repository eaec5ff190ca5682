"""Exact ranks and the one helper that clears rationals to integers."""

import random
from fractions import Fraction

import pytest

from grodeg import QQ
from grodeg.linalg import primitive_integers, rank_exact

from conftest import ref_rank_fraction


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
