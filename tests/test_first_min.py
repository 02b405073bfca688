"""The exact first-minimum helper behind kappa and gamma.

``_first_min`` takes integer arrays x and y and returns the flat position
and the value, in lowest terms, of the first strict minimum of x / y, with
0/0 as 1, x/0 skipped and a negative denominator flipping both signs.  The
cases below are built by hand, and a seeded sweep compares it with a
Fraction loop on small int64 and Python-int arrays.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from stosub.independence import _first_min

BIG = 2**60  # above 2**53, so neighbouring ratios round to one float


def _arrays(x, y, dtype):
    return np.array(x, dtype=dtype), np.array(y, dtype=dtype)


def loop_first_min(x, y):
    """The reference: one Fraction per ratio, first strict minimum."""
    best = found = None
    for k, (num, den) in enumerate(zip(x, y)):
        if den == 0:
            if num != 0:
                continue
            num = den = 1
        ratio = Fraction(num, den)
        if best is None or ratio < best:
            best, found = ratio, k
    return None if found is None else (found, best)


@pytest.mark.parametrize("dtype", [np.int64, object])
class TestHandMade:
    def test_float_equal_but_later_smaller(self, dtype):
        x, y = _arrays([BIG + 2, BIG + 1, BIG + 3], [BIG, BIG, BIG], dtype)
        assert float(Fraction(BIG + 2, BIG)) == float(Fraction(BIG + 1, BIG))
        assert _first_min(x, y) == (1, (BIG + 1, BIG))

    def test_float_equal_after_reduction(self, dtype):
        # 2/2 ties 1/1 exactly; (BIG - 1) / BIG lies below both by 2**-60.
        x, y = _arrays([2, 1, BIG - 1, 3], [2, 1, BIG, 3], dtype)
        assert _first_min(x, y) == (2, (BIG - 1, BIG))

    def test_float_order_reversed_by_rounding(self, dtype):
        # In int64 the second quotient rounds above the first, yet the second
        # ratio is exactly smaller: the window must keep it.
        top = 2**62
        x, y = _arrays([top + 955, top - 176], [top + 3642, top + 2545], dtype)
        smaller = Fraction(top - 176, top + 2545)
        assert smaller < Fraction(top + 955, top + 3642)
        quotients = [float(a) / float(b) for a, b in zip(x.tolist(), y.tolist())]
        assert quotients[1] > quotients[0]
        assert _first_min(x, y) == (1, (smaller.numerator, smaller.denominator))

    def test_exact_ties_keep_the_earliest(self, dtype):
        x, y = _arrays([3, 1, 2, 5, 1], [4, 2, 4, 10, 2], dtype)
        assert _first_min(x, y) == (1, (1, 2))

    def test_all_equal_in_different_terms(self, dtype):
        x, y = _arrays([7, 1, 14, 21, 3, 1, 70], [7, 1, 14, 21, 3, 1, 70], dtype)
        assert _first_min(x, y) == (0, (1, 1))

    def test_zero_over_zero_counts_as_one(self, dtype):
        x, y = _arrays([3, 0, 5], [2, 0, 4], dtype)
        assert _first_min(x, y) == (1, (1, 1))

    def test_nonzero_over_zero_is_skipped(self, dtype):
        x, y = _arrays([-5, 5, 3], [0, 0, 4], dtype)
        assert _first_min(x, y) == (2, (3, 4))

    def test_negative_denominator_flips_sign(self, dtype):
        x, y = _arrays([1, -3, 2], [-2, 4, 3], dtype)
        assert _first_min(x, y) == (1, (-3, 4))
        x, y = _arrays([-1], [-2], dtype)
        assert _first_min(x, y) == (0, (1, 2))

    def test_zero_numerator_is_zero(self, dtype):
        x, y = _arrays([1, 0, 0], [3, 5, 2], dtype)
        assert _first_min(x, y) == (1, (0, 1))

    def test_all_skipped(self, dtype):
        x, y = _arrays([1, -2, 7], [0, 0, 0], dtype)
        assert _first_min(x, y) is None

    def test_two_dimensional_input_is_read_flat(self, dtype):
        x, y = _arrays([[4, 3], [1, 9]], [[4, 4], [2, 9]], dtype)
        assert _first_min(x, y) == (2, (1, 2))


def test_python_ints_beyond_float_range():
    """Ratios whose quotient overflows a float still compare exactly."""
    huge = 10**400
    x = np.array([huge, -huge, 1, -huge - 1], dtype=object)
    y = np.array([1, 1, huge, 1], dtype=object)
    assert _first_min(x, y) == (3, (-huge - 1, 1))
    x = np.array([1, 1], dtype=object)
    y = np.array([huge + 1, huge], dtype=object)
    assert _first_min(x, y) == (0, (1, huge + 1))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_matches_fraction_loop(dtype):
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        scale = rng.choice([1, 3, BIG] if dtype is np.int64 else [1, 10**30])
        x = [rng.randint(-3, 3) * scale + rng.randint(-1, 1) for _ in range(n)]
        y = [rng.randint(-3, 3) * scale + rng.randint(-1, 1) for _ in range(n)]
        hit = _first_min(*_arrays(x, y, dtype))
        want = loop_first_min(x, y)
        if want is None:
            assert hit is None
        else:
            assert (hit[0], Fraction(*hit[1])) == want
            assert hit[1] == (want[1].numerator, want[1].denominator)
