"""Construction of the groups G = (C_p x C_p) : Q8 and their class data.

The quaternion subgroup of SL2(p) is fixed canonically: X = [[0,-1],[1,0]]
and Y = [[a,b],[b,-a]] for the lexicographically smallest (a, b) with
a^2 + b^2 = -1 (mod p).  Group elements are 6-tuples of residues
(v0, v1, a, b, c, d): the vector part followed by the row-major matrix
part.  That encoding is what appears in JSON reports.

Conjugacy classes are computed by brute-force orbit closure, which is
plenty at this scale (|G| = 8 p^2 <= 1352 for the primes we run).
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
    """Conjugacy data for one group: reps, sizes, lookups and the square map."""

    group: SemidirectGroup
    reps: tuple            # class index -> element index of the minimal rep
    sizes: tuple           # class index -> class size
    centralizer_orders: tuple
    class_of: tuple        # element index -> class index
    square_map: tuple      # class index -> class index of rep^2
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


def _group_generators(group):
    """Four generators of G: the two core basis vectors and X, Y of Q."""
    q = group.quaternion
    return (
        (1, 0, 1, 0, 0, 1),
        (0, 1, 1, 0, 0, 1),
        (0, 0) + q.x.entries(),
        (0, 0) + q.y.entries(),
    )


def conjugacy_classes(group):
    """Partition the element list into conjugacy classes by orbit closure.

    Orbits are closed under conjugation by a generating set (repeated until
    nothing new appears), with a visited set over the canonical encoding.
    Representatives are the minimal-index members; centralizer orders come
    from the orbit-stabilizer relation and are checked to divide |G|.
    """
    elements = group.elements
    order = len(elements)
    index = group.index
    gens = _group_generators(group)
    class_of = [-1] * order
    reps, sizes = [], []
    for i, e in enumerate(elements):
        if class_of[i] >= 0:
            continue
        k = len(reps)
        orbit = {i}
        frontier = [e]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    j = index[group.conj(g, h)]
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(elements[j])
            frontier = nxt
        for j in orbit:
            if class_of[j] >= 0:
                raise InvariantError("conjugation orbits failed to partition the group")
            class_of[j] = k
        reps.append(i)
        sizes.append(len(orbit))
    if sum(sizes) != order:
        raise InvariantError("class sizes do not sum to |G|")
    cents = []
    for s in sizes:
        if order % s:
            raise InvariantError(f"class size {s} does not divide |G| = {order}")
        cents.append(order // s)
    square_map = _square_map(group, class_of)
    return ClassTable(
        group=group,
        reps=tuple(reps),
        sizes=tuple(sizes),
        centralizer_orders=tuple(cents),
        class_of=tuple(class_of),
        square_map=tuple(square_map),
    )


def _square_map(group, class_of):
    """Class of g^2 per class, checked identical for every member."""
    n_classes = max(class_of) + 1
    sq = [-1] * n_classes
    for i, e in enumerate(group.elements):
        k = class_of[i]
        target = class_of[group.index[group.mul(e, e)]]
        if sq[k] < 0:
            sq[k] = target
        elif sq[k] != target:
            raise InvariantError(f"square map depends on the representative in class {k}")
    return sq


def count_square_roots_of_identity(ct):
    """#{g in G : g^2 = 1}, by brute force over all elements."""
    group = ct.group
    ident = group.identity
    return sum(1 for e in group.elements if group.mul(e, e) == ident)


def square_locus(group):
    """The set {g : g^2 in V}, as element tuples."""
    return {e for e in group.elements if group.in_core(group.mul(e, e))}
