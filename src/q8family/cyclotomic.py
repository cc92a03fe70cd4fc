"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored in the power basis 1, zeta, ..., zeta^(phi(n)-1) of
Q[x]/(Phi_n(x)), with canonical reduction, so equality of two values of the
same order is coefficient-wise.  Coefficients are exact: plain ints where
possible, fractions.Fraction otherwise (never floats).  A value whose
non-constant coefficients all vanish is demoted to order 1, which keeps the
serialized form canonical.

Binary operations on mismatched orders lift both operands into the field of
the lcm order before combining.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InvariantError


def _as_coeff(c):
    """Normalize a coefficient: integral Fractions become ints, floats are rejected."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _int_poly_divmod(num, den):
    """Divide integer polynomials (ascending coefficients), den monic."""
    if den[-1] != 1:
        raise InvariantError("division by non-monic polynomial")
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                rem[i - dd + j] -= c * den[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, ascending degree, exact integers.

    Computed by dividing x^n - 1 by the product of Phi_d over proper
    divisors d of n; the division is exact with zero remainder.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial index must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _int_poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _int_poly_divmod(num, den)
    if rem:
        raise InvariantError(f"x^{n} - 1 not divisible by product of proper Phi_d")
    return tuple(quot)


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
        if self.n == 1:
            return str(self.coeffs[0])
        sym = f"z{self.n}"
        terms = []
        for i, c in enumerate(self.coeffs):
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

    def __repr__(self):
        return f"Cyclotomic({self.n}, {list(self.coeffs)})"

    def to_json_obj(self):
        """Serialized form: {"n": ..., "coeffs": [[num, den], ...]} with exact decimal strings."""
        pairs = [[str(c), "1"] if type(c) is int else [str(c.numerator), str(c.denominator)]
                 for c in self.coeffs]
        return {"n": self.n, "coeffs": pairs}

    @classmethod
    def from_json_obj(cls, obj):
        coeffs = [int(num) if den == "1" else Fraction(int(num), int(den))
                  for num, den in obj["coeffs"]]
        return cls(int(obj["n"]), coeffs)


ZERO = Cyclotomic(1, [0])
ONE = Cyclotomic(1, [1])


def root_of_unity(n, k):
    """zeta_n^k as a canonical Cyclotomic (exponent taken mod n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    k %= n
    return Cyclotomic(n, [0] * k + [1])
