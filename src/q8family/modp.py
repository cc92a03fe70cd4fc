"""Prime-field scalars and 2x2 matrices over F_p.

Scalars are plain int residues in [0, p); the modulus travels on the
containing structure.  Matrices are NamedTuples so they are hashable and
cheap to compare.
"""

from typing import NamedTuple


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def inv_mod(x, p):
    """Multiplicative inverse of x mod p via extended Euclid."""
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    old_r, r = x, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_s % p


class Mat2(NamedTuple):
    """2x2 matrix over F_p with entries reduced into [0, p)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    @classmethod
    def make(cls, a, b, c, d, p):
        return cls(a % p, b % p, c % p, d % p, p)

    @classmethod
    def identity(cls, p):
        return cls(1, 0, 0, 1, p)

    def det(self):
        return (self.a * self.d - self.b * self.c) % self.p

    def __mul__(self, other):
        p = self.p
        return Mat2(
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p,
            p,
        )

    def inv(self):
        p = self.p
        det = self.det()
        di = inv_mod(det, p)
        return Mat2((self.d * di) % p, (-self.b * di) % p,
                    (-self.c * di) % p, (self.a * di) % p, p)

    def neg(self):
        p = self.p
        return Mat2(-self.a % p, -self.b % p, -self.c % p, -self.d % p, p)

    def entries(self):
        return (self.a, self.b, self.c, self.d)
