"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored in the power basis 1, zeta, ..., zeta^(phi(n)-1) of
Q[x]/(Phi_n(x)), with canonical reduction, so equality of two values of the
same order is coefficient-wise.  Coefficients are exact: plain ints where
possible, fractions.Fraction otherwise (never floats).  A value whose
non-constant coefficients all vanish is demoted to order 1, which keeps the
serialized form canonical.

Binary operations on mismatched orders lift both operands into the field of
the lcm order before combining; a product with an int or Fraction scales
the coefficients.  `RootSum`, at the end, holds the values
of character tables as counts of p-th roots of unity.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import sub

from .errors import InvariantError
from .modp import is_odd_prime


def _as_coeff(c):
    """Normalize a coefficient: integral Fractions become ints, floats are rejected."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def _prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, ascending degree, exact integers.

    Computed as the Moebius product prod_{d | n} (x^d - 1)^mu(n/d).  Every
    factor is a unit of Z[[x]] (constant term -1), so the product can be
    taken in power series truncated above degree phi(n), the degree of
    Phi_n: one O(phi(n)) pass per squarefree divisor n/d, multiplying or
    dividing by x^d - 1.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial index must be >= 1")
    primes = _prime_factors(n)
    size = n
    for q in primes:
        size = size // q * (q - 1)
    size += 1  # coefficients of degree 0..phi(n)
    poly = [1] + [0] * (size - 1)
    for mask in range(1 << len(primes)):
        d, sign = n, 1
        for i, q in enumerate(primes):
            if mask >> i & 1:
                d, sign = d // q, -sign
        if sign > 0:  # times x^d - 1
            poly = [-c for c in poly[:d]] + [a - b for a, b in zip(poly, poly[d:])]
        else:  # over x^d - 1: q_i = q_(i-d) - a_i
            quot = [-c for c in poly[:d]]
            for j in range(d, size, d):
                quot += [a - b for a, b in zip(quot[j - d:j], poly[j:j + d])]
            poly = quot
    if poly[-1] != 1:
        raise InvariantError(f"Phi_{n} computed as a non-monic polynomial")
    return tuple(poly)


def euler_phi(n):
    """phi(n), read off as the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(coeffs, n):
    """Remainder of a coefficient list modulo Phi_n (Phi_n is monic)."""
    div = cyclotomic_polynomial(n)
    dd = len(div) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(dd):
                rem[i - dd + j] -= c * div[j]
    return rem[:dd]


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


def _json_obj(n, coeffs):
    """Serialized form of the canonical value (n, coeffs)."""
    pairs = [[str(c), "1"] if type(c) is int else [str(c.numerator), str(c.denominator)]
             for c in coeffs]
    return {"n": n, "coeffs": pairs}


class Cyclotomic:
    """An exact element of Q(zeta_n) in the canonical power basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        if n < 1:
            raise ValueError("order must be >= 1")
        coeffs = [_as_coeff(c) for c in coeffs]
        phi = euler_phi(n)
        if len(coeffs) > phi:
            coeffs = [_as_coeff(c) for c in _reduce_mod_cyclotomic(coeffs, n)]
        if len(coeffs) < phi:
            coeffs = coeffs + [0] * (phi - len(coeffs))
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, coeffs[:1]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- conversions -------------------------------------------------------

    def coeffs_at(self, m):
        """Raw power-basis coefficients of this value at order m (needs n | m).

        The result is not re-canonicalized, so it always has exactly phi(m)
        entries; rational values stay padded rather than demoting back to
        order 1.
        """
        if m == self.n:
            return self.coeffs
        if m % self.n:
            raise ValueError(f"cannot lift order {self.n} into order {m}")
        step = m // self.n
        out = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        phi = euler_phi(m)
        if len(out) > phi:
            out = _reduce_mod_cyclotomic(out, m)
        if len(out) < phi:
            out = out + [0] * (phi - len(out))
        return tuple(out)

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return Fraction(self.coeffs[0])

    def is_zero(self):
        return not any(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _common(self, other):
        """Coerce to (m, coeffs_a, coeffs_b) with both lists of length phi(m)."""
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(1, [other])
        elif not isinstance(other, Cyclotomic):
            return None
        if self.n == other.n:
            return self.n, self.coeffs, other.coeffs
        m = lcm(self.n, other.n)
        return m, self.coeffs_at(m), other.coeffs_at(m)

    def __add__(self, other):
        common = self._common(other)
        if common is None:
            return NotImplemented
        m, ca, cb = common
        return Cyclotomic(m, [x + y for x, y in zip(ca, cb)])

    __radd__ = __add__

    def __sub__(self, other):
        common = self._common(other)
        if common is None:
            return NotImplemented
        m, ca, cb = common
        return Cyclotomic(m, [x - y for x, y in zip(ca, cb)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar scales the coefficients
            return Cyclotomic(self.n, [c * other for c in self.coeffs])
        common = self._common(other)
        if common is None:
            return NotImplemented
        m, ca, cb = common
        if not (any(ca) and any(cb)):
            return ZERO
        conv = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic(m, conv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of cyclotomic value by zero")
        inv = Fraction(1, 1) / other
        return Cyclotomic(self.n, [c * inv for c in self.coeffs])

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Cyclotomic(1, [1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        """Image under zeta_n -> zeta_n^(n-1), i.e. complex conjugation."""
        if self.n == 1:
            return self
        out = [0] * self.n
        for i, c in enumerate(self.coeffs):
            if c:
                out[(self.n - i) % self.n] += c
        return Cyclotomic(self.n, out)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        common = self._common(other)
        if common is None:
            return NotImplemented
        _, ca, cb = common
        return tuple(ca) == tuple(cb)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # no canonical form across subfields other than Q

    # -- rendering / serialization ------------------------------------------

    def __str__(self):
        return _format(self.n, self.coeffs)

    def __repr__(self):
        return f"Cyclotomic({self.n}, {list(self.coeffs)})"

    def to_json_obj(self):
        """Serialized form: {"n": ..., "coeffs": [[num, den], ...]} with exact decimal strings."""
        return _json_obj(self.n, self.coeffs)


ZERO = Cyclotomic(1, [0])
ONE = Cyclotomic(1, [1])


def root_of_unity(n, k):
    """zeta_n^k as a canonical Cyclotomic (exponent taken mod n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    k %= n
    return Cyclotomic(n, [0] * k + [1])


# every RootSum checks its p; a table builds thousands, all at one prime
_odd_prime = lru_cache(maxsize=128)(is_odd_prime)


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
        if type(p) is not int or not _odd_prime(p):
            raise ValueError(f"p={p!r}: not an odd prime")
        if len(counts) != p:
            raise ValueError(f"{len(counts)} counts for the {p}-th roots of unity")
        if type(sum(counts)) is not int:  # a float, Fraction or Decimal count spreads to the sum
            raise TypeError("root counts must be ints")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("RootSum values are immutable")

    def canonical(self):
        """(n, coeffs) of the equal Cyclotomic, coeffs a tuple.

        Hashable, and equal for two RootSums exactly when they are equal
        values, whatever their primes: the key of every memo of value texts.
        """
        top = self.counts[-1]
        coeffs = tuple([c - top for c in self.counts[:-1]]) if top else self.counts[:-1]
        return (self.p, coeffs) if any(coeffs[1:]) else (1, coeffs[:1])

    def to_cyclotomic(self):
        return Cyclotomic(*self.canonical())

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        n, coeffs = self.canonical()
        return Fraction(coeffs[0]) if n == 1 else None

    def is_zero(self):
        return self.counts.count(self.counts[0]) == self.p

    def __eq__(self, other):
        if isinstance(other, RootSum):
            if other.p == self.p:
                return len(set(map(sub, self.counts, other.counts))) == 1
            other = other.to_cyclotomic()
        if isinstance(other, (int, Fraction)):
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
        """The serialized form of the equal Cyclotomic."""
        return _json_obj(*self.canonical())

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
