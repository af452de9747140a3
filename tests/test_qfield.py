"""Field construction, quadratic integer arithmetic, and base classification.

The multiplication and norm oracles below work in doubled coordinates
u + v*sqrt(-d) with u, v integers or half-integers (2u, 2v stored), a
representation independent of the omega basis used by the package.
"""

from functools import reduce
from math import isqrt
from operator import mul

import pytest
from hypothesis import example, given, strategies as st

from wieferich import BaseClass, FieldSpec, InexactDivisionError, QuadInt, classify_base, is_squarefree
from wieferich.qfield import BASIS_HALF, BASIS_SQRT, embedding_magnitude_sq

FIELD_DS = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15]
# d = 0 is the rational mode, whose elements take y = 0
RING_DS = [0, *FIELD_DS]


def doubled(a: QuadInt) -> tuple[int, int, int]:
    """(2u, 2v, d) with a = u + v*sqrt(-d)."""
    F = a.field
    if F.is_rational:
        return 2 * a.x, 0, 0
    if F.basis_kind == BASIS_SQRT:
        return 2 * a.x, 2 * a.y, F.d
    return 2 * a.x + a.y, a.y, F.d


def oracle_mul(a: QuadInt, b: QuadInt) -> tuple[int, int]:
    u1, v1, d = doubled(a)
    u2, v2, _ = doubled(b)
    return u1 * u2 - d * v1 * v2, u1 * v2 + v1 * u2  # 4*(real), 4*(coeff of sqrt(-d))


def oracle_norm(a: QuadInt) -> int:
    u, v, d = doubled(a)
    assert (u * u + d * v * v) % 4 == 0
    return (u * u + d * v * v) // 4


small_ints = st.integers(min_value=-50, max_value=50)


def ring_element(d: int, x: int, y: int) -> QuadInt:
    return FieldSpec.from_d(d).element(x, 0 if d == 0 else y)


class TestFieldSpec:
    def test_basis_kinds(self):
        assert FieldSpec.from_d(1).basis_kind == BASIS_SQRT
        assert FieldSpec.from_d(2).basis_kind == BASIS_SQRT
        assert FieldSpec.from_d(3).basis_kind == BASIS_HALF
        assert FieldSpec.from_d(7).basis_kind == BASIS_HALF
        assert FieldSpec.from_d(11).basis_kind == BASIS_HALF

    def test_discriminants(self):
        assert FieldSpec.from_d(1).discriminant == -4
        assert FieldSpec.from_d(2).discriminant == -8
        assert FieldSpec.from_d(3).discriminant == -3
        assert FieldSpec.from_d(7).discriminant == -7
        assert FieldSpec.from_d(5).discriminant == -20

    def test_omega_trace_and_norm(self):
        F1 = FieldSpec.from_d(1)
        assert (F1.omega_trace, F1.omega_norm) == (0, 1)
        F7 = FieldSpec.from_d(7)
        assert (F7.omega_trace, F7.omega_norm) == (1, 2)

    def test_rational_mode(self):
        F = FieldSpec.from_d(0)
        assert F.is_rational
        assert F.degree == 1
        assert F.d == 0 and F.describe()["mode"] == "rational"
        assert str(F) == "Q"

    def test_rejects_bad_d(self):
        for bad in (4, 8, 9, 12, -1, -3):
            with pytest.raises(ValueError):
                FieldSpec.from_d(bad)

    def test_d_must_be_an_integer(self):
        # a float d once built Q(sqrt(-2.0)) with float coordinates
        for bad in (2.0, "3", None):
            with pytest.raises(TypeError, match="d must be an integer"):
                FieldSpec.from_d(bad)
        assert type(FieldSpec(True).d) is int and FieldSpec(True) == FieldSpec(1)

    def test_coordinates_must_be_integers(self):
        # a float coordinate was once truncated: element(2.5) became 2
        gauss = FieldSpec.from_d(1)
        with pytest.raises(TypeError, match="x must be an integer"):
            gauss.element(2.5)
        with pytest.raises(TypeError, match="y must be an integer"):
            gauss.element(1, 1.0)
        assert gauss.element(2, 1) == QuadInt(2, 1, gauss)

    def test_parse_element(self):
        F = FieldSpec.from_d(1)
        assert F.parse_element("2,1") == F.element(2, 1)
        assert F.parse_element("-3") == F.element(-3)
        assert F.parse_element(" 4 , -5 ") == F.element(4, -5)
        with pytest.raises(ValueError):
            F.parse_element("1,2,3")
        with pytest.raises(ValueError):
            F.parse_element("x")
        with pytest.raises(ValueError):
            FieldSpec.from_d(0).parse_element("1,2")

    def test_is_squarefree(self):
        assert [n for n in range(1, 20) if is_squarefree(n)] == [
            1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19,
        ]

    def test_is_squarefree_matches_naive(self):
        for n in range(-2, 2001):
            naive = n >= 1 and all(n % (f * f) for f in range(2, isqrt(n) + 1))
            assert is_squarefree(n) == naive, n

    def test_large_square_factor_is_found(self):
        # the square of a prime above the trial limit is found past trial division
        assert not is_squarefree(3 * 10000019**2)
        with pytest.raises(ValueError, match="squarefree"):
            FieldSpec.from_d(3 * 10000019**2)


class TestArithmetic:
    @given(small_ints, small_ints, small_ints, small_ints, st.sampled_from(RING_DS))
    def test_mul_matches_doubled_oracle(self, x1, y1, x2, y2, d):
        a, b = ring_element(d, x1, y1), ring_element(d, x2, y2)
        pu, pv, _ = doubled(a * b)
        # doubled coords of the product are half the product of doubled coords
        assert (2 * pu, 2 * pv) == oracle_mul(a, b)

    @given(small_ints, small_ints, st.sampled_from(FIELD_DS))
    def test_norm_matches_oracle(self, x, y, d):
        a = FieldSpec.from_d(d).element(x, y)
        assert a.norm() == oracle_norm(a)
        assert a.abs_norm() == abs(oracle_norm(a))

    @given(small_ints, small_ints, st.sampled_from(RING_DS))
    def test_conjugate_involution_and_norm(self, x, y, d):
        a = ring_element(d, x, y)
        c = a.conjugate()
        assert c.conjugate() == a
        assert (a * c).y == 0
        # a times its conjugate is |sigma(a)|^2: the norm in degree two, x^2 in rational
        # mode, whose norm is the signed x itself
        assert (a * c).x == embedding_magnitude_sq(a)
        assert a.norm() == (a.x if d == 0 else (a * c).x)

    @given(small_ints, small_ints, small_ints, small_ints, st.sampled_from(FIELD_DS))
    def test_norm_multiplicative(self, x1, y1, x2, y2, d):
        F = FieldSpec.from_d(d)
        a, b = F.element(x1, y1), F.element(x2, y2)
        assert (a * b).norm() == a.norm() * b.norm()

    @given(small_ints, small_ints, small_ints, small_ints, st.sampled_from(RING_DS))
    def test_exact_div_roundtrip(self, x1, y1, x2, y2, d):
        a, b = ring_element(d, x1, y1), ring_element(d, x2, y2)
        if b.is_zero:
            return
        assert (a * b).exact_div(b) == a

    def test_exact_div_rejects_inexact(self):
        F = FieldSpec.from_d(1)
        with pytest.raises(InexactDivisionError):
            F.element(1, 0).exact_div(F.element(1, 1))
        R = FieldSpec.from_d(0)
        with pytest.raises(InexactDivisionError):
            R.element(7).exact_div(R.element(2))
        assert R.element(-8).exact_div(R.element(2)) == R.element(-4)

    def test_pow(self):
        F = FieldSpec.from_d(1)
        a = F.element(2, 1)
        assert a**0 == F.one()
        assert a**1 == a
        assert a**2 == F.element(3, 4)
        assert a**5 == a * a * a * a * a
        with pytest.raises(ValueError):
            a ** (-1)

    @given(small_ints, small_ints, st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=200), st.sampled_from([0, 1, 2, 3, 7, 11]))
    @example(x=2, y=1, e=0, mod=1, d=1)
    @example(x=2, y=1, e=0, mod=7, d=3)
    @example(x=-3, y=5, e=9, mod=1, d=7)
    @example(x=-5, y=0, e=4, mod=9, d=0)
    def test_modular_pow_reduces_the_power(self, x, y, e, mod, d):
        a = ring_element(d, x, y)
        power = a**e
        assert power == reduce(mul, [a] * e, a.field.one())
        assert pow(a, e, mod) == a.field.element(power.x % mod, power.y % mod)

    def test_signed_rational_norm(self):
        R = FieldSpec.from_d(0)
        assert R.element(-7).norm() == -7
        assert R.element(-7).abs_norm() == 7

    def test_units(self):
        F1 = FieldSpec.from_d(1)
        assert F1.element(0, 1).is_unit()
        assert F1.element(-1, 0).is_unit()
        assert not F1.element(1, 1).is_unit()
        F3 = FieldSpec.from_d(3)
        # omega = (1 + sqrt(-3))/2 is a sixth root of unity
        assert F3.element(0, 1).is_unit()
        assert FieldSpec.from_d(0).element(-1).is_unit()
        assert not FieldSpec.from_d(0).element(2).is_unit()

    def test_str_forms(self):
        F1 = FieldSpec.from_d(1)
        assert str(F1.element(2, 1)) == "2+i"
        assert str(F1.element(0, -1)) == "-i"
        F2 = FieldSpec.from_d(2)
        assert str(F2.element(1, -1)) == "1-sqrt(-2)"
        assert str(FieldSpec.from_d(0).element(-3)) == "-3"


class TestClassifyBase:
    def test_buckets(self, gauss_field):
        assert classify_base(gauss_field.zero()) is BaseClass.ZERO
        assert classify_base(gauss_field.element(0, 1)) is BaseClass.ROOT_OF_UNITY
        assert classify_base(gauss_field.element(1, 1)) is BaseClass.SMALL
        assert classify_base(gauss_field.element(2, 1)) is BaseClass.ELIGIBLE

    def test_half_basis_unit(self, d3_field):
        assert classify_base(d3_field.element(0, 1)) is BaseClass.ROOT_OF_UNITY
        assert classify_base(d3_field.element(1, -1)) is BaseClass.ROOT_OF_UNITY
        assert classify_base(d3_field.element(1, 1)) is BaseClass.SMALL
        assert classify_base(d3_field.element(0, 2)) is BaseClass.ELIGIBLE

    def test_rational(self, rational_field):
        assert classify_base(rational_field.element(0)) is BaseClass.ZERO
        assert classify_base(rational_field.element(-1)) is BaseClass.ROOT_OF_UNITY
        assert classify_base(rational_field.element(2)) is BaseClass.ELIGIBLE
        assert classify_base(rational_field.element(-2)) is BaseClass.ELIGIBLE

    @given(small_ints, small_ints, st.sampled_from(FIELD_DS))
    def test_eligible_iff_norm_at_least_four(self, x, y, d):
        a = FieldSpec.from_d(d).element(x, y)
        assert (classify_base(a) is BaseClass.ELIGIBLE) == (a.norm() >= 4)
