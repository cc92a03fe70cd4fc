"""Prime-field scalars and 2x2 matrices over F_p, and the one check that p is an odd prime.

Scalars are plain int residues in [0, p); the modulus travels on the
containing structure.  Matrices are NamedTuples so they are hashable and
cheap to compare.

The prime bound is the commands' cost policy (`--bound`): only their
entry points pass one to `require_odd_prime`; every builder takes any
odd prime.
"""

from typing import NamedTuple

from .errors import UsageError

DEFAULT_PRIME_BOUND = 97


def is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_odd_prime(p, bound=None):
    """p, if it is a plain int that is an odd prime and, given a bound, at most it; else UsageError."""
    if type(p) is not int or not is_odd_prime(p):
        raise UsageError(f"p={p!r}: not an odd prime")
    if bound is not None and p > bound:
        raise UsageError(f"p={p} exceeds the prime bound {bound}")
    return p


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
        di = pow(self.det(), -1, p)
        return Mat2((self.d * di) % p, (-self.b * di) % p,
                    (-self.c * di) % p, (self.a * di) % p, p)

    def neg(self):
        p = self.p
        return Mat2(-self.a % p, -self.b % p, -self.c % p, -self.d % p, p)

    def entries(self):
        return (self.a, self.b, self.c, self.d)
