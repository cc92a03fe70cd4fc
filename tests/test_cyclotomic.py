import time
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q8family.cyclotomic import (ONE, ZERO, Cyclotomic, RootSum, cyclotomic_polynomial,
                                 euler_phi, root_of_unity)


def phi_by_counting(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div_exact(num, den):
    """Independent long division for the Phi_12 oracle; den monic."""
    rem = list(num)
    quot = [0] * (len(rem) - len(den) + 1)
    for i in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[i]
        quot[i - len(den) + 1] = c
        for j, d in enumerate(den):
            rem[i - len(den) + 1 + j] -= c * d
    assert not any(rem), "division was not exact"
    return quot


class TestCyclotomicPolynomial:
    def test_phi_1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi_3(self):
        assert cyclotomic_polynomial(3) == (1, 1, 1)

    def test_phi_12_against_division_oracle(self):
        # x^12 - 1 divided by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6, all hardcoded
        den = [1]
        for known in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
            den = poly_mul(den, known)
        num = [-1] + [0] * 11 + [1]
        assert list(cyclotomic_polynomial(12)) == poly_div_exact(num, den)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_integer_coefficients_and_degree(self, n):
        poly = cyclotomic_polynomial(n)
        assert all(isinstance(c, int) for c in poly)
        assert len(poly) - 1 == phi_by_counting(n)
        assert poly[-1] == 1  # monic
        assert euler_phi(n) == phi_by_counting(n)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    @pytest.mark.parametrize("n", range(1, 200))
    def test_moebius_product_against_division_definition(self, n):
        assert list(cyclotomic_polynomial(n)) == phi_by_division(n)

    def test_large_composite_order_is_quick(self):
        # 30030 = 2 3 5 7 11 13: dividing x^n - 1 by every proper Phi_d did not return
        start = time.perf_counter()
        v = Cyclotomic(30030, [1])
        assert time.perf_counter() - start < 2.0
        assert v == 1 and euler_phi(30030) == 5760


@cache
def phi_by_division(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d of n."""
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, phi_by_division(d))
    return poly_div_exact([-1] + [0] * (n - 1) + [1], den)


class TestRoots:
    def test_identity_root(self):
        assert root_of_unity(3, 0) == 1

    def test_phi3_relation(self):
        # zeta_3^2 = -1 - zeta_3 in the power basis
        z2 = root_of_unity(3, 2)
        assert z2.n == 3 and z2.coeffs == (-1, -1)

    def test_exponent_wraps(self):
        assert root_of_unity(5, 7) == root_of_unity(5, 2)

    def test_inverse_roots_multiply_to_one(self):
        assert root_of_unity(3, 1) * root_of_unity(3, 2) == 1

    def test_sum_of_nontrivial_cube_roots(self):
        s = root_of_unity(3, 1) + root_of_unity(3, 2)
        assert s * ONE == -1

    def test_exponent_arithmetic(self):
        assert root_of_unity(5, 2) * root_of_unity(5, 4) == root_of_unity(5, 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_all_roots_sum_to_zero(self, n):
        total = ZERO
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total == 0

    def test_same_value_across_orders(self):
        # zeta_6^2 and zeta_3 are the same number in different presentations
        assert root_of_unity(6, 2) == root_of_unity(3, 1)
        assert root_of_unity(2, 1) == -1


class TestConjugation:
    def test_rational_fixed(self):
        assert ONE.conjugate() == 1

    def test_zeta5_squared(self):
        assert root_of_unity(5, 2).conjugate() == root_of_unity(5, 3)

    def test_zeta3(self):
        c = root_of_unity(3, 1).conjugate()
        assert c.coeffs == (-1, -1)


class TestRationalDetection:
    def test_plain_value(self):
        assert Cyclotomic(3, [1, 0]).as_rational() == 1

    def test_root_is_not_rational(self):
        assert root_of_unity(3, 1).as_rational() is None

    def test_root_plus_conjugate(self):
        z = root_of_unity(3, 1)
        assert (z + z.conjugate()).as_rational() == -1

    def test_rational_demotes_to_order_one(self):
        v = Cyclotomic(7, [3] + [0] * 5)
        assert v.n == 1 and v.coeffs == (3,)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclotomics(draw, orders=(1, 3, 4, 5, 8, 12)):
    n = draw(st.sampled_from(orders))
    coeffs = draw(st.lists(small_rationals, min_size=1, max_size=euler_phi(n)))
    return Cyclotomic(n, coeffs)


class TestRingAxioms:
    @given(cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(cyclotomics())
    @settings(max_examples=80, deadline=None)
    def test_units_and_negation(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == 0
        assert -(-a) == a

    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=80, deadline=None)
    def test_conjugation_is_a_ring_map(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    @given(cyclotomics())
    @settings(max_examples=80, deadline=None)
    def test_conjugation_involutive(self, a):
        assert a.conjugate().conjugate() == a

    @given(st.sampled_from([2, 3, 4, 5, 8, 12]), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_root_norm_is_one(self, n, k):
        z = root_of_unity(n, k)
        assert (z * z.conjugate()).as_rational() == 1


class TestMixedOrders:
    def test_rational_times_root(self):
        assert 2 * root_of_unity(13, 1) == Cyclotomic(13, [0, 2])

    def test_orders_3_and_4_lift_to_12(self):
        v = root_of_unity(3, 1) + root_of_unity(4, 1)
        assert v.n == 12
        # conjugate splits back over both parts
        assert v.conjugate() == root_of_unity(3, 2) + root_of_unity(4, 3)

    def test_scalar_division(self):
        v = Cyclotomic(5, [2, 4, 0, 0]) / 2
        assert v == Cyclotomic(5, [1, 2, 0, 0])
        assert (ONE / 3).as_rational() == Fraction(1, 3)
        with pytest.raises(ZeroDivisionError):
            ONE / 0

    def test_power(self):
        z = root_of_unity(7, 3)
        assert z ** 7 == 1
        assert z ** 2 == root_of_unity(7, 6)


class TestHygiene:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Cyclotomic(3, [0.5, 0])

    def test_immutable(self):
        z = root_of_unity(3, 1)
        with pytest.raises(AttributeError):
            z.n = 4

    def test_str_forms(self):
        assert str(Cyclotomic(1, [Fraction(1, 2)])) == "1/2"
        assert str(root_of_unity(3, 2)) == "-1 - z3"
        assert str(ZERO) == "0"

    def test_json_round_trip(self):
        v = Cyclotomic(5, [Fraction(1, 2), -3, 0, 7])
        obj = v.to_json_obj()
        assert obj["coeffs"][0] == ["1", "2"]
        assert obj["n"] == 5 and obj["coeffs"][1:] == [["-3", "1"], ["0", "1"], ["7", "1"]]


class TestRootSum:
    """Count vectors of p-th roots of unity against the equal Cyclotomic."""

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_agrees_with_the_equal_cyclotomic(self, p, data):
        counts = data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p))
        v = RootSum(p, counts)
        exact = sum((c * root_of_unity(p, e) for e, c in enumerate(counts)), ZERO)
        assert v.to_cyclotomic() == exact and repr(v.to_cyclotomic()) == repr(exact)
        assert v == exact and exact == v and not (v != exact)
        assert str(v) == str(exact) and v.to_json_obj() == exact.to_json_obj()
        assert v.as_rational() == exact.as_rational()
        assert v.is_zero() == exact.is_zero()
        shift = data.draw(st.integers(-5, 5))
        same = RootSum(p, [c + shift for c in counts])
        assert same == v and str(same) == str(v)
        other = RootSum(p, [c + (e == 1) for e, c in enumerate(counts)])
        assert other != v and other != exact and exact != other

    def test_rationals_and_ints(self):
        seven = RootSum(5, [9, 2, 2, 2, 2])
        assert seven == 7 and 7 == seven and seven == Fraction(7) and seven != 8
        assert str(seven) == "7" and seven.as_rational() == 7
        assert seven == RootSum(3, [7, 0, 0])  # the same rational at another prime
        assert RootSum(5, [0, 1, 0, 0, 0]) != RootSum(3, [0, 1, 0])
        assert RootSum(3, [4, 4, 4]).is_zero() and RootSum(3, [4, 4, 4]) == 0

    def test_cyclotomic_of_another_order(self):
        assert RootSum(3, [0, 1, 0]) == root_of_unity(6, 2)
        assert RootSum(3, [0, 1, 0]) != root_of_unity(6, 1)

    def test_counts_must_be_exact_ints(self):
        with pytest.raises(TypeError):
            RootSum(3, [Fraction(1, 2), 0, 0])
        with pytest.raises(TypeError):
            RootSum(3, [1.0, 0, 0])
        with pytest.raises(ValueError):
            RootSum(5, [1, 0, 0])

    @pytest.mark.parametrize("p", [9, 15, 1, 2, 3.0])
    def test_p_must_be_an_odd_prime(self, p):
        # RootSum(9, [1,0,0,1,0,0,1,0,0]) would be 0 in Q(zeta_9), yet its
        # counts are not constant: equality modulo all-ones needs p prime
        with pytest.raises(ValueError, match="not an odd prime"):
            RootSum(p, [1 if e % 3 == 0 else 0 for e in range(int(p))])

    def test_immutable_and_unhashable(self):
        v = RootSum(3, [1, 0, 0])
        with pytest.raises(AttributeError):
            v.counts = (0, 0, 0)
        with pytest.raises(TypeError):
            hash(v)
