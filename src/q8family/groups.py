"""Construction of the groups G = (C_p x C_p) : Q8 and their class data.

The quaternion subgroup of SL2(p) is fixed canonically: X = [[0,-1],[1,0]]
and Y = [[a,b],[b,-a]] for the lexicographically smallest (a, b) with
a^2 + b^2 = -1 (mod p).  Group elements are 6-tuples of residues
(v0, v1, a, b, c, d): the vector part followed by the row-major matrix
part.  That encoding is what appears in JSON reports.

G is a Frobenius group with kernel V = C_p x C_p: no element of Q but I
fixes a nonzero vector.  Only this module decides that structure: the
det-1 premise, membership in V (`SemidirectGroup.in_core`), the class
partition (`class_partition_holds`) and which classes make up V and V z
(`ClassTable.core` and `z_class`).  Classes are read off it (Q-orbits
on V, whole cosets of V off it), then one pass squares every element
(|G| = 8 p^2 for any odd prime p: 75,272 at the commands' default bound
97, which only they check): the one source of square facts.
"""

from .errors import InvariantError, UsageError
from .modp import Mat2, require_odd_prime

IDENTITY_MATRIX = (1, 0, 0, 1)  # the matrix part of every element of V

# conjugation convention used throughout: h ** g = g h g^-1


class QuaternionSubgroup:
    """A quaternion subgroup of order 8 in SL2(p); immutable.

    elements are ordered (I, z, X, -X, Y, -Y, XY, -XY); class_of maps a
    matrix's entry 4-tuple to its class index in the order
    {1}, {z}, {X,-X}, {Y,-Y}, {XY,-XY}.  Equality and hash read every
    field but class_of, which the others determine.
    """

    __slots__ = ("p", "x", "y", "z", "elements", "class_of")

    def __init__(self, p, x, y, z, elements, class_of):
        for name, value in zip(self.__slots__, (p, x, y, z, elements, class_of)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionSubgroup is immutable")

    def _key(self):
        return (self.p, self.x, self.y, self.z, self.elements)

    def __eq__(self, other):
        if type(other) is not QuaternionSubgroup:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _require_det_one(matrices):
    """InvariantError unless every matrix of Q has det 1, i.e. Q lies in SL2(p)."""
    for m in matrices:
        if m.det() != 1:
            raise InvariantError(f"quaternion element {m.entries()} has det != 1")


def _build_subgroup(p, x, y):
    ident = Mat2.identity(p)
    z = x * x
    if z != y * y or z != ident.neg():
        raise InvariantError("quaternion relations fail: X^2 = Y^2 = -I expected")
    if y * x * y.inv() != x.inv():
        raise InvariantError("quaternion relations fail: Y X Y^-1 != X^-1")
    xy = x * y
    elements = (ident, z, x, x.neg(), y, y.neg(), xy, xy.neg())
    if len(set(elements)) != 8:
        raise InvariantError("quaternion subgroup has fewer than 8 distinct elements")
    _require_det_one(elements)
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


def quaternion_subgroup(p):
    """The canonical quaternion subgroup of SL2(p) for an odd prime p."""
    require_odd_prime(p)
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
        ident = (0, 0) + IDENTITY_MATRIX
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
        """h ** g = g h g^-1, written out as one expression.

        For g = (w, N) and h = (v, M) this is (w + N v - M' w, M') with
        M' = N M N^-1, and det N = 1 makes N^-1 = [[d, -b], [-c, a]].  It
        equals mul(mul(g, h), inv(g)) at well under the cost of the three
        calls.  `conjugacy_classes` and `selftest`'s z-inverts-V line call
        it; the tests' brute-force and closure oracles call it most.
        """
        p = self.p
        g0, g1, a, b, c, d = g
        h0, h1, ha, hb, hc, hd = h
        x, y = a * ha + b * hc, a * hb + b * hd
        z, w = c * ha + d * hc, c * hb + d * hd
        ma, mb, mc, md = x * d - y * c, y * a - x * b, z * d - w * c, w * a - z * b
        return (
            (g0 + a * h0 + b * h1 - ma * g0 - mb * g1) % p,
            (g1 + c * h0 + d * h1 - mc * g0 - md * g1) % p,
            ma % p, mb % p, mc % p, md % p,
        )

    def in_core(self, g):
        """True when g lies in V, i.e. its matrix part is the identity."""
        return g[2:] == IDENTITY_MATRIX


def build_group(p, quaternion=None):
    """Enumerate G for the given odd prime; 8 p^2 elements, identity first."""
    if quaternion is None:
        quaternion = quaternion_subgroup(p)
    elif quaternion.p != p:
        raise UsageError("subgroup prime does not match requested prime")
    return SemidirectGroup(quaternion)


class ClassTable:
    """Conjugacy data for one group: reps, sizes, lookups and the squaring pass.

    Only here are `core`, the classes inside V (`SemidirectGroup.in_core`),
    and `z_class`, the class V z of (0, z) (None when (0, z) is not an
    element), derived from `group` and `reps`.  Two caches ride along:
    `modular_image`, the last `modular.image_of` result, and `value_pool`,
    the character values of this table's build (`characters.induced_values`
    and `inflated_values` share one `RootSum` per distinct value through
    it).  A table made anew, even from another table's fields, derives
    `core` and `z_class` again and starts with both caches empty.
    Equality is identity.
    """

    __slots__ = ("group", "reps", "sizes", "centralizer_orders", "class_of", "square_map",
                 "root_counts", "core", "z_class", "modular_image", "value_pool")

    def __init__(self, group, reps, sizes, centralizer_orders, class_of,
                 square_map, root_counts):
        self.group = group
        self.reps = reps                    # class index -> element index of the minimal rep
        self.sizes = sizes                  # class index -> class size
        self.centralizer_orders = centralizer_orders
        self.class_of = class_of            # element index -> class index
        self.square_map = square_map        # class index -> class index of rep^2
        self.root_counts = root_counts      # class index K -> #{g : g^2 in K}
        self.core = frozenset(k for k, i in enumerate(reps) if group.in_core(group.elements[i]))
        z = group.index.get((0, 0) + group.quaternion.z.entries())
        self.z_class = None if z is None else class_of[z]
        self.modular_image = None
        self.value_pool = {}

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


def conjugacy_classes(group):
    """Partition the element list into conjugacy classes from the Frobenius structure.

    Write g = (w, N) and h = (v, M).  Then g h g^-1 = (w + N v - M' w, M')
    with M' = N M N^-1.  For M = I this is (N v, I), so the class of (v, I)
    is the Q-orbit {(N v, I) : N in Q}.  For M != I, det(I - M') =
    det(I - M) != 0 mod p, so w -> (I - M') w is onto V and, for each N,
    the conjugates fill the whole coset V x {M'}: the class of (v, M) is
    V x {N M N^-1 : N in Q}.  Every premise is checked (each M in Q has
    det 1, det(I - M) != 0 for M != I, each N M N^-1 lies in Q), as is the
    result: every element lies in exactly one class, and the sizes pass
    `class_partition_holds`.  Classes are numbered in order of their minimal
    element index, which is their representative; centralizer orders come
    from the orbit-stabilizer relation.  One squaring pass over the
    elements fills in the square map and the root counts, raising unless a
    class squares into one class, so square facts are read off it by class.
    """
    p, elements, index = group.p, group.elements, group.index
    order = len(elements)
    q = group.quaternion.elements
    in_q = {m.entries() for m in q}
    ident = Mat2.identity(p)
    _require_det_one(q)
    for m in q:
        if m != ident and ((1 - m.a) * (1 - m.d) - m.b * m.c) % p == 0:
            raise InvariantError(f"quaternion element {m.entries()} fixes a nonzero vector")
    # M -> the entries of its class in Q, for M != I: the matrix parts of
    # (0, N) (0, M) (0, N)^-1, so `group.conj` is the one conjugation formula
    q_class = {}
    for m in q:
        if m != ident:
            h = (0, 0) + m.entries()
            conj = {group.conj((0, 0) + n.entries(), h)[2:] for n in q}
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
    cents = [order // s for s in sizes]
    if not class_partition_holds(order, sizes, cents):
        raise InvariantError(f"class sizes do not partition |G| = {order}")
    # the squaring pass: the class of g^2 must be the same for all g in a class
    square_map, root_counts = [-1] * len(reps), [0] * len(reps)
    for i, e in enumerate(elements):
        target, k = class_of[index[group.mul(e, e)]], class_of[i]
        if square_map[k] not in (-1, target):
            raise InvariantError(f"square map depends on the representative in class {k}")
        square_map[k] = target
        root_counts[target] += 1
    return ClassTable(
        group=group,
        reps=tuple(reps),
        sizes=tuple(sizes),
        centralizer_orders=tuple(cents),
        class_of=tuple(class_of),
        square_map=tuple(square_map),
        root_counts=tuple(root_counts),
    )


def class_partition_holds(order, sizes, centralizers):
    """Class sizes sum to |G|, divide it, and |K| |C(K)| = |G| for every class."""
    # products before the modulus, so a zero size fails instead of raising
    return (sum(sizes) == order
            and all(s * c == order for s, c in zip(sizes, centralizers))
            and all(order % s == 0 for s in sizes))


def count_square_roots_of_identity(ct):
    """#{g in G : g^2 = 1}, by brute force; the literal oracle for `ct.root_counts`."""
    group = ct.group
    ident = group.identity
    return sum(1 for e in group.elements if group.mul(e, e) == ident)


def square_locus(group):
    """{g : g^2 in V} by brute force; the literal oracle for `CharacterTable.square_locus`."""
    return {e for e in group.elements if group.in_core(group.mul(e, e))}
