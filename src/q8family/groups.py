"""Construction of the groups G = (C_p x C_p) : Q8 and their class data.

The quaternion subgroup of SL2(p) is fixed canonically: X = [[0,-1],[1,0]]
and Y = [[a,b],[b,-a]] for the lexicographically smallest (a, b) with
a^2 + b^2 = -1 (mod p).  Group elements are 6-tuples of residues
(v0, v1, a, b, c, d): the vector part followed by the row-major matrix
part.  That encoding is what appears in JSON reports.

G is a Frobenius group with kernel V = C_p x C_p: no element of Q but I
fixes a nonzero vector.  Conjugacy classes are read off that structure
(Q-orbits on V, whole cosets of V off it), then one pass squares every
element (|G| = 8 p^2 <= 75,272 up to the prime bound 97).
"""

from dataclasses import dataclass, field

from .errors import InvariantError, UsageError
from .modp import Mat2, is_odd_prime

DEFAULT_PRIME_BOUND = 97

# conjugation convention used throughout: h ** g = g h g^-1


def require_odd_prime(p, bound=DEFAULT_PRIME_BOUND):
    if not isinstance(p, int) or not is_odd_prime(p):
        raise UsageError(f"p={p}: not an odd prime")
    if p > bound:
        raise UsageError(f"p={p} exceeds the prime bound {bound}")
    return p


@dataclass(frozen=True)
class QuaternionSubgroup:
    """A quaternion subgroup of order 8 in SL2(p).

    elements are ordered (I, z, X, -X, Y, -Y, XY, -XY); class_of maps a
    matrix's entry 4-tuple to its class index in the order
    {1}, {z}, {X,-X}, {Y,-Y}, {XY,-XY}.
    """

    p: int
    x: Mat2
    y: Mat2
    z: Mat2
    elements: tuple
    class_of: dict = field(compare=False)


def _build_subgroup(p, x, y):
    ident = Mat2.identity(p)
    z = x * x
    if z != y * y or z != ident.neg():
        raise InvariantError("quaternion relations fail: X^2 = Y^2 = -I expected")
    if (x * x) * (x * x) != ident:
        raise InvariantError("quaternion relations fail: X^4 != I")
    if y * x * y.inv() != x.inv():
        raise InvariantError("quaternion relations fail: Y X Y^-1 != X^-1")
    xy = x * y
    elements = (ident, z, x, x.neg(), y, y.neg(), xy, xy.neg())
    if len(set(elements)) != 8:
        raise InvariantError("quaternion subgroup has fewer than 8 distinct elements")
    for m in elements:
        if m.det() != 1:
            raise InvariantError(f"quaternion element {m.entries()} has det != 1")
    involutions = [m for m in elements if m * m == ident and m != ident]
    if involutions != [z]:
        raise InvariantError("quaternion subgroup must have -I as its unique involution")
    class_of = {
        ident.entries(): 0,
        z.entries(): 1,
        x.entries(): 2, x.neg().entries(): 2,
        y.entries(): 3, y.neg().entries(): 3,
        xy.entries(): 4, xy.neg().entries(): 4,
    }
    return QuaternionSubgroup(p=p, x=x, y=y, z=z, elements=elements, class_of=class_of)


def quaternion_subgroup(p, bound=DEFAULT_PRIME_BOUND):
    """The canonical quaternion subgroup of SL2(p) for an odd prime p."""
    require_odd_prime(p, bound)
    x = Mat2.make(0, -1, 1, 0, p)
    y = None
    target = p - 1  # -1 mod p
    for a in range(p):
        for b in range(p):
            if (a * a + b * b) % p == target:
                y = Mat2.make(a, b, b, -a, p)
                break
        if y is not None:
            break
    if y is None:
        raise InvariantError(f"no (a, b) with a^2 + b^2 = -1 mod {p}")
    return _build_subgroup(p, x, y)


def conjugated_subgroup(q, t):
    """The subgroup t Q t^-1 for t in SL2(p); used for independence checks."""
    if t.det() != 1:
        raise UsageError("conjugating matrix must have det 1")
    ti = t.inv()
    return _build_subgroup(q.p, t * q.x * ti, t * q.y * ti)


class SemidirectGroup:
    """G = V : Q on 6-tuples (v0, v1, a, b, c, d).

    Multiplication is (v1, M1)(v2, M2) = (v1 + M1 v2, M1 M2); the identity
    sits at index 0 of `elements` and the rest follow in lexicographic
    order of the encoding.
    """

    __slots__ = ("p", "quaternion", "elements", "index", "identity")

    def __init__(self, quaternion):
        p = quaternion.p
        self.p = p
        self.quaternion = quaternion
        mats = sorted(m.entries() for m in quaternion.elements)
        elems = [(v0, v1) + m for v0 in range(p) for v1 in range(p) for m in mats]
        elems.sort()
        ident = (0, 0, 1, 0, 0, 1)
        elems.remove(ident)
        elems.insert(0, ident)
        self.identity = ident
        self.elements = tuple(elems)
        self.index = {e: i for i, e in enumerate(elems)}

    def __len__(self):
        return len(self.elements)

    def mul(self, g, h):
        p = self.p
        g0, g1, ga, gb, gc, gd = g
        h0, h1, ha, hb, hc, hd = h
        return (
            (g0 + ga * h0 + gb * h1) % p,
            (g1 + gc * h0 + gd * h1) % p,
            (ga * ha + gb * hc) % p,
            (ga * hb + gb * hd) % p,
            (gc * ha + gd * hc) % p,
            (gc * hb + gd * hd) % p,
        )

    def inv(self, g):
        # (v, M)^-1 = (-M^-1 v, M^-1); det M = 1 so M^-1 = [[d,-b],[-c,a]]
        p = self.p
        g0, g1, ga, gb, gc, gd = g
        ia, ib, ic, id_ = gd, (-gb) % p, (-gc) % p, ga
        return (
            (-(ia * g0 + ib * g1)) % p,
            (-(ic * g0 + id_ * g1)) % p,
            ia, ib, ic, id_,
        )

    def conj(self, g, h):
        """h ** g = g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def in_core(self, g):
        """True when g lies in V, i.e. its matrix part is the identity."""
        return g[2:] == (1, 0, 0, 1)


def build_group(p, quaternion=None, bound=DEFAULT_PRIME_BOUND):
    """Enumerate G for the given odd prime; 8 p^2 elements, identity first."""
    if quaternion is None:
        quaternion = quaternion_subgroup(p, bound)
    elif quaternion.p != p:
        raise UsageError("subgroup prime does not match requested prime")
    return SemidirectGroup(quaternion)


@dataclass(eq=False)
class ClassTable:
    """Conjugacy data for one group: reps, sizes, lookups and the squaring pass."""

    group: SemidirectGroup
    reps: tuple            # class index -> element index of the minimal rep
    sizes: tuple           # class index -> class size
    centralizer_orders: tuple
    class_of: tuple        # element index -> class index
    square_map: tuple      # class index -> class index of rep^2
    root_counts: tuple     # class index K -> #{g : g^2 in K}
    square_locus: frozenset  # {g : g^2 in V}, as element tuples
    # the last `modular.image_of` result; `dataclasses.replace` starts afresh
    modular_image: object = field(default=None, init=False, repr=False)

    @property
    def p(self):
        return self.group.p

    @property
    def n_classes(self):
        return len(self.reps)

    @property
    def order(self):
        return len(self.group.elements)

    def rep_element(self, k):
        return self.group.elements[self.reps[k]]

    def class_of_element(self, g):
        return self.class_of[self.group.index[g]]


def _conjugate(n, m):
    """The entries of N M N^-1 for det N = 1, so that N^-1 = [[d, -b], [-c, a]].

    Written out because two Mat2 products and an inverse cost about three
    times as much, and the 56 conjugations are most of the work at small p.
    """
    a, b, c, d, p = n
    x, y = a * m.a + b * m.c, a * m.b + b * m.d
    z, w = c * m.a + d * m.c, c * m.b + d * m.d
    return ((x * d - y * c) % p, (y * a - x * b) % p, (z * d - w * c) % p, (w * a - z * b) % p)


def conjugacy_classes(group):
    """Partition the element list into conjugacy classes from the Frobenius structure.

    Write g = (w, N) and h = (v, M).  Then g h g^-1 = (w + N v - M' w, M')
    with M' = N M N^-1.  For M = I this is (N v, I), so the class of (v, I)
    is the Q-orbit {(N v, I) : N in Q}.  For M != I, det(I - M') =
    det(I - M) != 0 mod p, so w -> (I - M') w is onto V and, for each N,
    the conjugates fill the whole coset V x {M'}: the class of (v, M) is
    V x {N M N^-1 : N in Q}.  Every premise is checked (each M in Q has
    det 1, det(I - M) != 0 for M != I, each N M N^-1 lies in Q), as is the
    result: every element lies in exactly one class, and the sizes sum to
    |G| and divide it.  Classes are numbered in order of their minimal
    element index, which is their representative; centralizer orders come
    from the orbit-stabilizer relation.  One squaring pass over the
    elements then fills in the square map, the root counts and the square
    locus.
    """
    p, elements, index = group.p, group.elements, group.index
    order = len(elements)
    q = group.quaternion.elements
    in_q = {m.entries() for m in q}
    ident = Mat2.identity(p)
    for m in q:
        if m.det() != 1:
            raise InvariantError(f"quaternion element {m.entries()} has det != 1")
        if m != ident and ((1 - m.a) * (1 - m.d) - m.b * m.c) % p == 0:
            raise InvariantError(f"quaternion element {m.entries()} fixes a nonzero vector")
    # M -> the entries of its class in Q, for M != I
    q_class = {}
    for m in q:
        if m != ident:
            conj = {_conjugate(n, m) for n in q}
            if not conj <= in_q:
                raise InvariantError(f"a conjugate of {m.entries()} is not in Q")
            q_class[m.entries()] = conj
    vectors = [(v0, v1) for v0 in range(p) for v1 in range(p)]
    class_of = [-1] * order
    reps, sizes = [], []
    for i, e in enumerate(elements):
        if class_of[i] >= 0:
            continue
        v0, v1, m = e[0], e[1], e[2:]
        if group.in_core(e):
            members = {((n.a * v0 + n.b * v1) % p, (n.c * v0 + n.d * v1) % p) + m for n in q}
            size = len(members)
        else:  # generated, not stored: a coset class has up to 2 p^2 members
            members = (v + c for c in q_class[m] for v in vectors)
            size = len(q_class[m]) * len(vectors)
        k = len(reps)
        for h in members:
            j = index[h]
            if class_of[j] >= 0:
                raise InvariantError("conjugacy classes failed to partition the group")
            class_of[j] = k
        reps.append(i)
        sizes.append(size)
    if sum(sizes) != order:
        raise InvariantError("class sizes do not sum to |G|")
    cents = []
    for s in sizes:
        if order % s:
            raise InvariantError(f"class size {s} does not divide |G| = {order}")
        cents.append(order // s)
    # the squaring pass: the class of g^2 must be the same for all g in a class
    square_map, root_counts, locus = [-1] * len(reps), [0] * len(reps), []
    for i, e in enumerate(elements):
        e2 = group.mul(e, e)
        target, k = class_of[index[e2]], class_of[i]
        if square_map[k] not in (-1, target):
            raise InvariantError(f"square map depends on the representative in class {k}")
        square_map[k] = target
        root_counts[target] += 1
        if group.in_core(e2):
            locus.append(e)
    return ClassTable(
        group=group,
        reps=tuple(reps),
        sizes=tuple(sizes),
        centralizer_orders=tuple(cents),
        class_of=tuple(class_of),
        square_map=tuple(square_map),
        root_counts=tuple(root_counts),
        square_locus=frozenset(locus),
    )


def count_square_roots_of_identity(ct):
    """#{g in G : g^2 = 1}, by brute force; the literal oracle for `ct.root_counts`."""
    group = ct.group
    ident = group.identity
    return sum(1 for e in group.elements if group.mul(e, e) == ident)


def square_locus(group):
    """The set {g : g^2 in V}, as element tuples; the literal oracle for `ct.square_locus`."""
    return {e for e in group.elements if group.in_core(group.mul(e, e))}
