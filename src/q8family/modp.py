"""Prime-field scalars and 2x2 matrices over F_p, and the checks of every input p and label.

Scalars are plain int residues in [0, p); the modulus travels on the
containing structure.  Matrices are NamedTuples so they are hashable and
cheap to compare.

The checks are `require_odd_prime`, `odd_primes` (a range of primes),
`nontrivial_label` and `require_jobs`; the command line and the layers
both call them, so each refusal has one text.  The prime bound is the
commands' cost policy (`--bound`), not the mathematics': only `cli`
passes one, before any layer is loaded, and every library entry point
takes any odd prime.
"""

from typing import NamedTuple

from .errors import UsageError

DEFAULT_PRIME_BOUND = 97

# Miller-Rabin on the prime bases 2..41 is exact below this bound (Sorenson and
# Webster, Math. Comp. 86, 2017); an odd input at or past it is refused.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BELOW = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p):
    """True when p is an odd prime; UsageError for an odd p past the proven bound."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= _MILLER_RABIN_BELOW:
        raise UsageError(f"p={p}: too large to test for primality (limit {_MILLER_RABIN_BELOW})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if a % p == 0 or x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p, bound=None):
    """p, if it is a plain int that is an odd prime and, given a bound, at most it; else UsageError."""
    if type(p) is not int or not is_odd_prime(p):
        raise UsageError(f"p={p!r}: not an odd prime")
    if bound is not None and p > bound:
        raise UsageError(f"p={p} exceeds the prime bound {bound}")
    return p


def odd_primes(lo, hi, bound=None):
    """The odd primes in [lo, hi], each checked against bound as the range is walked.

    So the walk stops at the first prime past the bound.  UsageError on a
    bad range, a prime past the bound, or a range without odd primes.
    """
    if lo > hi or lo < 1:
        raise UsageError(f"bad prime range {lo}..{hi}")
    primes = [require_odd_prime(p, bound) for p in range(lo, hi + 1) if is_odd_prime(p)]
    if not primes:
        raise UsageError(f"no odd primes in range {lo}..{hi}")
    return primes


def require_jobs(jobs):
    """UsageError unless scan's worker count is at least 1."""
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")


def nontrivial_label(label, p):
    """The label reduced mod p; UsageError if it is the trivial label (0, 0)."""
    a, b = label
    label = (a % p, b % p)
    if label == (0, 0):
        raise UsageError("label must be nontrivial")
    return label


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
