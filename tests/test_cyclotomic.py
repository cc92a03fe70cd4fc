import operator
import time
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q8family import cyclotomic
from q8family.characters import character_table
from q8family.cyclotomic import Cyclotomic, RootSum, root_of_unity

PRIMES = (3, 5, 7, 11, 13)


def phi_by_counting(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def kept(n):
    """The orders the arithmetic keeps: the odd primes, phi(p) = p - 1."""
    return n % 2 == 1 and phi_by_counting(n) == n - 1


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    """Independent long division, den monic: (quotient, remainder below deg den)."""
    rem = list(num) + [0] * max(0, len(den) - 1 - len(num))
    quot = [0] * max(0, len(rem) - len(den) + 1)
    for i in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[i]
        quot[i - len(den) + 1] = c
        for j, d in enumerate(den):
            rem[i - len(den) + 1 + j] -= c * d
    return quot, rem[:len(den) - 1]


def poly_div_exact(num, den):
    quot, rem = poly_divmod(num, den)
    assert not any(rem), "division was not exact"
    return quot


@cache
def phi_by_division(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d of n."""
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, phi_by_division(d))
    return poly_div_exact([-1] + [0] * (n - 1) + [1], den)


class TestCyclotomicPolynomial:
    """Phi_n, from its division definition, against the arithmetic at order n.

    Z[x]/(Phi_n) is kept for the odd primes, where (x^p - 1)/(x - 1) =
    1 + x + ... + x^(p-1) is the relation the reduction applies.  Any other
    order is refused, 1 included: a rational is held at a prime.
    """

    def test_phi_1(self):
        # zeta_1 = 1: Q needs no order of its own, a rational is one power-basis constant
        assert phi_by_division(1) == [-1, 1]
        assert Cyclotomic(3, [5]).canonical() == (1, (5,)) and Cyclotomic(3, [5]) * 2 == 10
        with pytest.raises(ValueError, match="not an odd prime"):
            Cyclotomic(1, [5])

    def test_phi_3(self):
        assert phi_by_division(3) == [1, 1, 1]
        assert root_of_unity(3, 2).canonical() == (3, (-1, -1))  # zeta^2 = -1 - zeta

    def test_phi_12_against_division_oracle(self):
        # the oracle: x^12 - 1 divided by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6, all hardcoded
        den = [1]
        for known in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):
            den = poly_mul(den, known)
        num = [-1] + [0] * 11 + [1]
        assert phi_by_division(12) == poly_div_exact(num, den) == [1, 0, -1, 0, 1]
        with pytest.raises(ValueError, match="not an odd prime"):
            Cyclotomic(12, [0, 1])

    @pytest.mark.parametrize("n", range(1, 41))
    def test_integer_coefficients_and_degree(self, n):
        if not kept(n):
            with pytest.raises(ValueError, match="not an odd prime"):
                Cyclotomic(n, [0, 1])
            return
        # zeta^(n-1) reduces to minus the lower terms of the monic Phi_n
        n_, coeffs = Cyclotomic(n, [0] * (n - 1) + [1]).canonical()
        assert n_ == n and len(coeffs) == phi_by_counting(n)
        assert all(type(c) is int for c in coeffs)
        assert coeffs == tuple(-c for c in phi_by_division(n)[:-1])

    def test_bad_index(self):
        with pytest.raises(ValueError, match="not an odd prime"):
            Cyclotomic(0, [1])

    @pytest.mark.parametrize("n", range(1, 200))
    def test_moebius_product_against_division_definition(self, n):
        if not kept(n):
            with pytest.raises(ValueError, match="not an odd prime"):
                Cyclotomic(n, [1])
            return
        # zeta_n is a root of the division definition's Phi_n
        zeta = Cyclotomic(n, [0, 1])
        power, value = Cyclotomic(n, [1]), Cyclotomic(n, [])
        for c in phi_by_division(n):
            value = value + c * power
            power = power * zeta
        assert value == 0

    def test_large_composite_order_is_quick(self):
        # 30030 = 2 3 5 7 11 13: dividing x^n - 1 by every proper Phi_d did not
        # return; the order is now refused at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not an odd prime"):
            Cyclotomic(30030, [1])
        assert time.perf_counter() - start < 2.0


small_ints = st.integers(-9, 9)


class TestOrders:
    @pytest.mark.parametrize("n", [True, 2, 4, 9, 15, 0, -3, 3.0, 1])
    def test_refused_orders(self, n):
        with pytest.raises(ValueError, match="not an odd prime"):
            Cyclotomic(n, [1])
        with pytest.raises(ValueError, match="not an odd prime"):
            root_of_unity(n, 1)

    def test_root_of_unity_needs_an_odd_prime(self):
        with pytest.raises(ValueError, match="not an odd prime"):
            root_of_unity(1, 0)

    def test_each_construction_checks_p_once(self, monkeypatch):
        calls = []
        check = cyclotomic.require_odd_prime

        def counted(p, bound=None):
            calls.append(p)
            return check(p, bound)

        monkeypatch.setattr(cyclotomic, "require_odd_prime", counted)
        z = Cyclotomic(5, [0, 1, 0, 0, 0])
        for build in (lambda: Cyclotomic(17, [1]), lambda: Cyclotomic(7, []),
                      lambda: Cyclotomic(5, [0, 1, 0, 0, 0]), lambda: RootSum(5, [1] * 5),
                      lambda: z + z, lambda: z * z, lambda: 3 * z, z.conjugate):
            calls.clear()
            value = build()
            assert calls == [value.p]

    def test_too_many_coefficients(self):
        with pytest.raises(ValueError, match="4 counts for the 3-th roots of unity"):
            Cyclotomic(3, [1, 2, 3, 4])

    def test_p_counts_reduce_mod_phi_p(self):
        assert Cyclotomic(3, [1, 2, 3]).canonical() == (3, (-2, -1))
        assert Cyclotomic(5, [2, 2, 2, 2, 2]) == 0
        assert Cyclotomic(5, [4, 3, 3, 3, 3]).canonical() == (1, (1,))
        assert type(Cyclotomic(5, [4, 3, 3, 3, 3]).as_rational()) is int

    def test_empty_is_zero(self):
        assert Cyclotomic(7, []) == 0 and Cyclotomic(3, []).counts == (0, 0, 0)
        assert Cyclotomic(3, [1]).counts == (1, 0, 0) and Cyclotomic(3, [1]) == 1

    def test_rational_lifts_as_the_constant_term(self):
        z = root_of_unity(5, 1)
        assert (1 + z).counts == (z + 1).counts == (1, 1, 0, 0, 0)
        assert (1 + z).canonical() == (5, (1, 1, 0, 0))
        assert (3 * z).counts == (z * 3).counts == (0, 3, 0, 0, 0)

    def test_two_primes_do_not_combine(self):
        z3, z5 = root_of_unity(3, 1), root_of_unity(5, 1)
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="values at p=3 and p=5 do not combine"):
                op(z3, z5)
            with pytest.raises(ValueError, match="values at p=5 and p=3 do not combine"):
                op(z5, z3)


class TestRoots:
    def test_identity_root(self):
        assert root_of_unity(3, 0) == 1

    def test_phi3_relation(self):
        # zeta_3^2 = -1 - zeta_3 in the power basis
        z2 = root_of_unity(3, 2)
        assert z2.canonical() == (3, (-1, -1))

    def test_exponent_wraps(self):
        assert root_of_unity(5, 7) == root_of_unity(5, 2)

    def test_inverse_roots_multiply_to_one(self):
        assert root_of_unity(3, 1) * root_of_unity(3, 2) == 1

    def test_sum_of_nontrivial_cube_roots(self):
        s = root_of_unity(3, 1) + root_of_unity(3, 2)
        assert s * Cyclotomic(3, [1]) == -1

    def test_exponent_arithmetic(self):
        assert root_of_unity(5, 2) * root_of_unity(5, 4) == root_of_unity(5, 1)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_all_roots_sum_to_zero(self, n):
        if not kept(n):  # no field of order n, so no roots to sum
            with pytest.raises(ValueError, match="not an odd prime"):
                root_of_unity(n, 1)
            return
        total = Cyclotomic(n, [])
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total == 0

    def test_same_value_across_orders(self):
        # a rational is one value at every order; irrationals of two primes differ
        assert root_of_unity(3, 0) == root_of_unity(5, 0) == Cyclotomic(7, [2, 0]) + -1 == 1
        z3, z5 = root_of_unity(3, 1), root_of_unity(5, 1)
        assert z3 != z5 and not (z3 == z5) and z5 != z3
        assert RootSum(5, [0, 1, 0, 0, 0]) != RootSum(3, [0, 1, 0])
        assert RootSum(5, [0, 1, 0, 0, 0]) != z3 and z3 != RootSum(5, [0, 1, 0, 0, 0])


class TestConjugation:
    def test_rational_fixed(self):
        assert Cyclotomic(5, [1]).conjugate() == 1

    def test_zeta5_squared(self):
        assert root_of_unity(5, 2).conjugate() == root_of_unity(5, 3)

    def test_zeta3(self):
        c = root_of_unity(3, 1).conjugate()
        assert c.counts == (0, 0, 1) and c.canonical() == (3, (-1, -1))


class TestRationalDetection:
    def test_plain_value(self):
        assert Cyclotomic(3, [1, 0]).as_rational() == 1
        assert type(Cyclotomic(3, [1, 0]).as_rational()) is int

    def test_root_is_not_rational(self):
        assert root_of_unity(3, 1).as_rational() is None

    def test_root_plus_conjugate(self):
        z = root_of_unity(3, 1)
        assert (z + z.conjugate()).as_rational() == -1

    def test_rational_demotes_to_order_one(self):
        v = Cyclotomic(7, [3] + [0] * 5)
        assert v.canonical() == (1, (3,))


def counts_at(p):
    """Up to p small int counts of the p-th roots of unity; missing ones are 0."""
    return st.lists(small_ints, max_size=p)


def one_field(k):
    """k values of Z[zeta_p], from counts, for one p drawn from 3, 5, 7, 13."""
    return st.sampled_from([3, 5, 7, 13]).flatmap(
        lambda p: st.tuples(*[counts_at(p).map(lambda c, p=p: Cyclotomic(p, c))] * k))


def power_basis(value):
    """The p - 1 power-basis coefficients of a value, zeros included."""
    coeffs = value.canonical()[1]
    return list(coeffs) + [0] * (value.p - 1 - len(coeffs))


def reduced(poly, p):
    """The remainder of poly mod (x^p - 1)/(x - 1), by the independent long division."""
    return poly_divmod(poly, phi_by_division(p))[1]


class TestRingAxioms:
    @given(one_field(3))
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_distributive(self, values):
        a, b, c = values
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(one_field(2))
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, values):
        a, b = values
        assert a * b == b * a
        assert a + b == b + a

    @given(one_field(1))
    @settings(max_examples=80, deadline=None)
    def test_units_and_negation(self, values):
        [a] = values
        assert a + Cyclotomic(a.p, []) == a and a + 0 == a == 0 + a
        assert a * Cyclotomic(a.p, [1]) == a and a * 1 == a == 1 * a
        assert a + -1 * a == 0

    @given(one_field(2))
    @settings(max_examples=80, deadline=None)
    def test_conjugation_is_a_ring_map(self, values):
        a, b = values
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    @given(one_field(1))
    @settings(max_examples=80, deadline=None)
    def test_conjugation_involutive(self, values):
        [a] = values
        assert a.conjugate().conjugate() == a

    @given(st.sampled_from(PRIMES), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_root_norm_is_one(self, p, k):
        z = root_of_unity(p, k)
        assert (z * z.conjugate()).as_rational() == 1


class TestProduct:
    """+, * and conjugation on counts against polynomials reduced mod Phi_p."""

    @given(p=st.sampled_from(PRIMES), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_product_is_the_remainder_mod_phi_p(self, p, data):
        # up to p counts each, so the factors are reduced as well
        a = data.draw(counts_at(p))
        b = data.draw(counts_at(p))
        assert power_basis(Cyclotomic(p, a)) == reduced(a, p)
        assert power_basis(Cyclotomic(p, a) * Cyclotomic(p, b)) == reduced(poly_mul(a, b), p)

    @given(p=st.sampled_from(PRIMES), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sum_scaling_and_conjugate_are_the_remainders_mod_phi_p(self, p, data):
        a = data.draw(counts_at(p))
        b = data.draw(counts_at(p))
        k = data.draw(small_ints)
        pa, pb = a + [0] * (p - len(a)), b + [0] * (p - len(b))
        assert power_basis(Cyclotomic(p, a) + Cyclotomic(p, b)) == reduced(
            [x + y for x, y in zip(pa, pb)], p)
        assert power_basis(Cyclotomic(p, a) + k) == reduced([pa[0] + k] + pa[1:], p)
        assert power_basis(k * Cyclotomic(p, a)) == reduced([k * c for c in a], p)
        # conj sum_e a_e x^e = sum_e a_e x^(p - e), with x^p = 1
        mirrored = [0] * p
        for e, c in enumerate(a):
            mirrored[-e % p] += c
        assert power_basis(Cyclotomic(p, a).conjugate()) == reduced(mirrored, p)


class TestMixedOrders:
    def test_rational_times_root(self):
        assert 2 * root_of_unity(13, 1) == Cyclotomic(13, [0, 2])

    def test_power(self):
        z = root_of_unity(7, 3)
        powers = [Cyclotomic(7, [1])]
        for _ in range(7):
            powers.append(powers[-1] * z)
        assert powers[7] == 1
        assert powers[2] == root_of_unity(7, 6)
        assert all(powers[k] == root_of_unity(7, 3 * k) for k in range(8))
        assert all(powers[k] != 1 for k in range(1, 7))


class TestHygiene:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Cyclotomic(3, [0.5, 0])

    @pytest.mark.parametrize("coeff", [1.0, Fraction(1, 2), Fraction(2), True, False])
    def test_bools_and_non_ints_rejected(self, coeff):
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(3, [coeff, 0])
        with pytest.raises(TypeError, match="must be ints"):
            Cyclotomic(5, [coeff])
        with pytest.raises(TypeError, match="must be ints"):
            RootSum(3, [coeff, 0, 0])  # a sum of bools is an int, yet str would read "True"

    def test_only_int_scalars(self):
        z = root_of_unity(3, 1)
        # a table value (a plain RootSum) has no arithmetic, and a bool is no count
        for scalar in (Fraction(1, 2), 0.5, True, RootSum(3, [0, 1, 0])):
            with pytest.raises(TypeError):
                z * scalar
            with pytest.raises(TypeError):
                z + scalar

    def test_immutable(self):
        z = root_of_unity(3, 1)
        for attr in ("p", "counts"):
            with pytest.raises(AttributeError):
                setattr(z, attr, 5)

    def test_str_forms(self):
        assert str(Cyclotomic(3, [-7])) == "-7"
        assert str(root_of_unity(3, 2)) == "-1 - z3"
        assert str(Cyclotomic(5, [2, -1, 0, 3])) == "2 - z5 + 3*z5^3"
        assert str(Cyclotomic(5, [])) == "0"


class TestRootSum:
    """Count vectors of p-th roots of unity against the equal Cyclotomic."""

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_agrees_with_the_equal_cyclotomic(self, p, data):
        counts = data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p))
        v = RootSum(p, counts)
        exact = sum((c * root_of_unity(p, e) for e, c in enumerate(counts)), Cyclotomic(p, []))
        assert v.to_cyclotomic() == exact and repr(v.to_cyclotomic()) == repr(exact)
        assert repr(v) == f"RootSum({p}, {counts})" and repr(exact) == f"Cyclotomic({p}, {counts})"
        assert v == exact and exact == v and not (v != exact)
        assert str(v) == str(exact)
        n, coeffs = exact.canonical()
        assert v.to_json_obj() == {"n": n, "coeffs": [[str(c), "1"] for c in coeffs]}
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
        assert seven != Fraction(15, 2) and Fraction(7) == seven
        assert str(seven) == "7" and seven.as_rational() == 7 and type(seven.as_rational()) is int
        assert seven == RootSum(3, [7, 0, 0])  # the same rational at another prime
        assert RootSum(5, [0, 1, 0, 0, 0]) != RootSum(3, [0, 1, 0])
        assert RootSum(3, [4, 4, 4]).is_zero() and RootSum(3, [4, 4, 4]) == 0

    def test_cyclotomic_of_another_order(self):
        assert RootSum(3, [0, 1, 0]) == root_of_unity(3, 1)
        assert RootSum(3, [0, 1, 0]) != root_of_unity(5, 1)
        assert RootSum(5, [9, 2, 2, 2, 2]) == Cyclotomic(7, [7]) == RootSum(3, [7, 0, 0])

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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_table_value_is_its_own_cyclotomic(self, p):
        for row in character_table(p).rows:
            for v in row.values:
                c = v.to_cyclotomic()
                assert type(c) is Cyclotomic and c.counts == v.counts
                assert c == v and v == c
                assert str(c) == str(v) and c.to_json_obj() == v.to_json_obj()
