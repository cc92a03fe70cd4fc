"""Exact arithmetic in Z and in the rings Z[zeta_p], p an odd prime.

Every character value of (C_p x C_p) : Q8 is a sum of p-th roots of
unity, so it lies in Z[zeta_p], and these are the only rings kept.  A
value of order p is held in the power basis 1, zeta, ..., zeta^(p-2) of
Z[x]/(Phi_p(x)), Phi_p = 1 + x + ... + x^(p-1), so equality is
coefficient-wise.  On the counts of the p roots, reducing mod Phi_p
subtracts the last count from the others: `_canonical`, for both
`Cyclotomic` and `RootSum`.  A value whose non-constant coefficients all
vanish is demoted to order 1, so values of different orders are never
equal.  Every coefficient and count is a plain int: a bool, float or
Fraction raises TypeError.  An integer lifts into Z[zeta_p] as the
constant term; arithmetic between two different primes raises ValueError.
`RootSum`, at the end, holds the values of character tables as counts of
p-th roots of unity.
"""

from functools import lru_cache
from numbers import Rational
from operator import countOf, sub

from .modp import is_odd_prime

# every RootSum checks its p; a table builds thousands, all at one prime
_odd_prime = lru_cache(maxsize=128)(is_odd_prime)


def _require_odd_prime(p):
    if type(p) is not int or not _odd_prime(p):
        raise ValueError(f"p={p!r}: not an odd prime")


def _require_ints(values):
    """Refuse any value but a plain int (a bool, float or Fraction), in one pass."""
    if countOf(map(type, values), int) != len(values):
        raise TypeError("coefficients and counts must be ints")


def _canonical(p, counts):
    """(n, coeffs) of sum_e counts[e] zeta_p^e, from exactly p counts; coeffs a tuple.

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)), so the power-basis
    coefficients are counts[i] - counts[p - 1]; a rational value is
    demoted to (1, (c,)).
    """
    top = counts[-1]
    coeffs = tuple([c - top for c in counts[:-1]] if top else counts[:-1])
    return (p, coeffs) if any(coeffs[1:]) else (1, coeffs[:1])


def _format(n, coeffs):
    """Text of the canonical value (n, coeffs): "-1 - z3", "2*z5^3", "7"."""
    if n == 1:
        return str(coeffs[0])
    sym = f"z{n}"
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = sym if i == 1 else f"{sym}^{i}"
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
    if not terms:
        return "0"
    text = terms[0]
    for t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


@lru_cache(maxsize=1024)  # a table's values repeat a few small coefficients
def _decimal_int(text):
    """The int whose `str` is text; ValueError for any other text."""
    if str(value := int(text)) != text:
        raise ValueError(f"{text!r} is not an integer as str writes it")
    return value


class Cyclotomic:
    """An element of Z (order 1) or of Z[zeta_p] (order p) in the canonical power basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        """The value sum_i coeffs[i] zeta_n^i; n is 1 or an odd prime, at most n int coefficients."""
        if type(n) is not int or n != 1:
            _require_odd_prime(n)
        coeffs = list(coeffs)
        if len(coeffs) > n:
            raise ValueError(f"{len(coeffs)} coefficients at order {n}")
        _require_ints(coeffs)
        if n == 1:
            coeffs = tuple(coeffs) or (0,)
        else:
            n, coeffs = _canonical(n, coeffs + [0] * (n - len(coeffs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- conversions -------------------------------------------------------

    def coeffs_at(self, m):
        """The coefficients at order m: the value's own order, or an odd prime for a rational."""
        if m == self.n:
            return self.coeffs
        if self.n != 1:
            raise ValueError(f"cannot lift order {self.n} into order {m}")
        _require_odd_prime(m)
        return self.coeffs + (0,) * (m - 2)

    def as_rational(self):
        """The value as an int if it is rational, else None."""
        return self.coeffs[0] if self.n == 1 else None

    def is_zero(self):
        return not any(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _common(self, other):
        """Coerce to (m, coeffs_a, coeffs_b), both at the order m of the two."""
        if isinstance(other, int):
            other = Cyclotomic(1, [other])
        elif not isinstance(other, Cyclotomic):
            return None
        m = max(self.n, other.n)
        return m, self.coeffs_at(m), other.coeffs_at(m)

    def __add__(self, other):
        common = self._common(other)
        if common is None:
            return NotImplemented
        m, ca, cb = common
        return Cyclotomic(m, [x + y for x, y in zip(ca, cb)])

    def __mul__(self, other):
        """An int scales the coefficients; otherwise a cyclic convolution, zeta^m = 1."""
        if isinstance(other, int):
            return Cyclotomic(self.n, [c * other for c in self.coeffs])
        common = self._common(other)
        if common is None:
            return NotImplemented
        m, ca, cb = common
        if not (any(ca) and any(cb)):
            return ZERO
        conv = [0] * m
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        conv[(i + j) % m] += x * y
        return Cyclotomic(m, conv)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^-1: the counts reversed, e -> -e."""
        if self.n == 1:
            return self
        c = self.coeffs
        return Cyclotomic(self.n, (c[0], 0) + c[:0:-1])

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        """Coefficient-wise; the canonical forms of different orders differ."""
        if isinstance(other, Rational):
            return self.n == 1 and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None  # values are compared, never used as keys

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        return _format(self.n, self.coeffs)

    def __repr__(self):
        return f"Cyclotomic({self.n}, {list(self.coeffs)})"


ZERO = Cyclotomic(1, [0])
ONE = Cyclotomic(1, [1])


def root_of_unity(p, k):
    """zeta_p^k as a canonical Cyclotomic, p an odd prime (exponent taken mod p)."""
    _require_odd_prime(p)
    return Cyclotomic(p, [0] * (k % p) + [1])


class RootSum:
    """The formal sum sum_e counts[e] zeta_p^e of p-th roots of unity, p an odd prime.

    Integer counts, so the value lies in Z[zeta_p].  1 + zeta + ... +
    zeta^(p-1) = 0 spans the relations among the powers, so two count
    vectors name the same element exactly when they differ by a multiple
    of the all-ones vector.  The equal `Cyclotomic` has the power-basis
    coefficients counts[i] - counts[p - 1]; equality, `str` and
    `to_json_obj` agree with it without building it, and `from_json_obj`
    reads that form back.  `to_cyclotomic` is for arithmetic.
    """

    __slots__ = ("p", "counts")

    def __init__(self, p, counts):
        counts = tuple(counts)
        _require_odd_prime(p)
        if len(counts) != p:
            raise ValueError(f"{len(counts)} counts for the {p}-th roots of unity")
        _require_ints(counts)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("RootSum values are immutable")

    def canonical(self):
        """(n, coeffs) of the equal Cyclotomic, coeffs a tuple.

        Hashable, and equal for two RootSums exactly when they are equal
        values, whatever their primes: the key of every memo of value texts.
        """
        return _canonical(self.p, self.counts)

    def to_cyclotomic(self):
        return Cyclotomic(*self.canonical())

    def as_rational(self):
        """The value as an int if it is rational, else None."""
        n, coeffs = self.canonical()
        return coeffs[0] if n == 1 else None

    def is_zero(self):
        return self.counts.count(self.counts[0]) == self.p

    def __eq__(self, other):
        if isinstance(other, RootSum):
            if other.p == self.p:
                return len(set(map(sub, self.counts, other.counts))) == 1
            other = other.to_cyclotomic()
        if isinstance(other, Rational):
            return self.as_rational() == other
        if isinstance(other, Cyclotomic):
            return self.to_cyclotomic() == other
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return _format(*self.canonical())

    def __repr__(self):
        return f"RootSum({self.p}, {list(self.counts)})"

    def to_json_obj(self):
        """The serialized form of the equal Cyclotomic: {"n": n, "coeffs": [[str(c), "1"], ...]}."""
        n, coeffs = self.canonical()
        return {"n": n, "coeffs": [[str(c), "1"] for c in coeffs]}

    @classmethod
    def from_json_obj(cls, obj, p):
        """The inverse of `to_json_obj` at the prime p: counts (*c, 0) from an
        order-p value's p - 1 coefficients c, (c, 0, ..., 0) from an order-1
        value's one.  Anything else raises ValueError saying what is wrong:
        another shape, order or length, a key other than "n" and "coeffs", a
        coefficient other than [str(c), "1"] for an int c, or an order-p value
        that `to_json_obj` writes as order 1.  So `to_json_obj` gives back
        every object this accepts.
        """
        if type(obj) is not dict or type(pairs := obj.get("coeffs")) is not list:
            raise ValueError('a value that is not an object with a "coeffs" list')
        if len(obj) != 2 or type(n := obj.get("n")) is not int:
            raise ValueError('a value with keys other than "n" and "coeffs", or a non-int "n"')
        if (n, len(pairs)) not in ((p, p - 1), (1, 1)):
            raise ValueError("a value of order other than 1 or p, or of the wrong length")
        counts = []
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2 or pair[1] != "1" or type(pair[0]) is not str:
                raise ValueError('a coefficient that is not [decimal integer, "1"]')
            counts.append(_decimal_int(pair[0]))
        if n != 1 and not any(counts[1:]):
            raise ValueError("an order-p value whose coefficients past the first are all 0, "
                             "which is written as order 1")
        return cls(p, counts + [0] * (p - len(counts)))
