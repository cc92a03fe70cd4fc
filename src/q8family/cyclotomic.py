"""Character values as sums of p-th roots of unity, p an odd prime.

Every character value of (C_p x C_p) : Q8 is a sum of p-th roots of
unity, so it lies in Z[zeta_p], and it is held as the int counts of the p
roots: `RootSum`.  1 + zeta + ... + zeta^(p-1) = 0 spans the relations
among the powers, so two count vectors name the same value exactly when
they differ by a multiple of the all-ones vector.  Subtracting the last
count from the others gives the power basis 1, zeta, ..., zeta^(p-2) of
Z[x]/(Phi_p(x)), Phi_p = 1 + x + ... + x^(p-1): `_canonical`, the form
that is printed and serialized, with a rational value written as the one
constant (c,) so that a rational is one value at every prime.  Every count
is a plain int: a bool, float or Fraction raises TypeError.  p passes
`modp.require_odd_prime`, whose UsageError is a ValueError.

`RootSum` has no arithmetic; table values are only compared, printed and
serialized, never read back, and the F_l kernel (`modular`) computes with
their counts.
`Cyclotomic`, at the end, is a `RootSum` with the ring operations that
`selftest`'s exact oracles use; values of two different primes do not
combine (ValueError).
"""

from numbers import Rational
from operator import add, countOf, sub

from .modp import require_odd_prime


def _require_ints(values):
    """Refuse any value but a plain int (a bool, float or Fraction), in one pass."""
    if countOf(map(type, values), int) != len(values):
        raise TypeError("coefficients and counts must be ints")


def _canonical(p, counts):
    """(n, coeffs) of sum_e counts[e] zeta_p^e, from exactly p counts; coeffs a tuple.

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)), so the power-basis
    coefficients are counts[i] - counts[p - 1]; a rational value is
    written (1, (c,)).
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


class RootSum:
    """The formal sum sum_e counts[e] zeta_p^e of p-th roots of unity, p an odd prime.

    Equality is modulo the all-ones vector; `str` and `to_json_obj` write
    the power-basis form `canonical()`.
    """

    __slots__ = ("p", "counts")

    def __init__(self, p, counts):
        counts = tuple(counts)
        require_odd_prime(p)
        self._fill(p, counts)

    def _fill(self, p, counts):
        """Set p, already checked, and counts: exactly p plain ints (ValueError, TypeError)."""
        if len(counts) != p:
            raise ValueError(f"{len(counts)} counts for the {p}-th roots of unity")
        _require_ints(counts)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("RootSum values are immutable")

    def canonical(self):
        """(n, coeffs): the power-basis coefficients at n = p, or (1, (c,)) for a rational c.

        Hashable, and equal for two RootSums exactly when they are equal
        values, whatever their primes: the key of every memo of value texts.
        """
        return _canonical(self.p, self.counts)

    def to_cyclotomic(self):
        return Cyclotomic(self.p, self.counts)

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
            return self.canonical() == other.canonical()
        if isinstance(other, Rational):
            return self.as_rational() == other
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return _format(*self.canonical())

    def __repr__(self):
        return f"{type(self).__name__}({self.p}, {list(self.counts)})"

    def to_json_obj(self):
        """The serialized form of `canonical()`: {"n": n, "coeffs": [[str(c), "1"], ...]}."""
        n, coeffs = self.canonical()
        return {"n": n, "coeffs": [[str(c), "1"] for c in coeffs]}


class Cyclotomic(RootSum):
    """A `RootSum` with the ring operations of Z[zeta_p]: +, *, and conjugation."""

    __slots__ = ()

    def __init__(self, p, counts):
        """The value sum_e counts[e] zeta_p^e; missing counts are 0, so [1] is one and [] zero."""
        counts = tuple(counts)
        require_odd_prime(p)  # before p sizes the padding
        self._fill(p, counts + (0,) * (p - len(counts)))

    def _counts_of(self, other):
        """The counts of an int (as the zeta^0 count) or a Cyclotomic at this prime, else None."""
        if type(other) is int:
            return (other,) + (0,) * (self.p - 1)
        if not isinstance(other, Cyclotomic):
            return None
        if other.p != self.p:
            raise ValueError(f"values at p={self.p} and p={other.p} do not combine")
        return other.counts

    def __add__(self, other):
        counts = self._counts_of(other)
        if counts is None:
            return NotImplemented
        return Cyclotomic(self.p, map(add, self.counts, counts))

    __radd__ = __add__

    def __mul__(self, other):
        """An int scales the counts; otherwise a cyclic convolution, zeta^p = 1."""
        if type(other) is int:
            return Cyclotomic(self.p, [c * other for c in self.counts])
        counts = self._counts_of(other)
        if counts is None:
            return NotImplemented
        p = self.p
        conv = [0] * p
        for i, x in enumerate(self.counts):
            if x:
                for j, y in enumerate(counts):
                    if y:
                        conv[(i + j) % p] += x * y
        return Cyclotomic(p, conv)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^-1: the counts reversed, e -> -e."""
        c = self.counts
        if c[1:] == c[:0:-1]:  # a real value: its own conjugate
            return self
        return Cyclotomic(self.p, c[:1] + c[:0:-1])


def root_of_unity(p, k):
    """zeta_p^k as a Cyclotomic, p an odd prime (exponent taken mod p)."""
    require_odd_prime(p)
    return Cyclotomic(p, [0] * (k % p) + [1])
