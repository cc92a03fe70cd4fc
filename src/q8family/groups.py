"""Construction of the groups G = (C_p x C_p) : Q8 and their class data.

The quaternion subgroup of SL2(p) is fixed canonically: X = [[0,-1],[1,0]]
and Y = [[a,b],[b,-a]] for the lexicographically smallest (a, b) with
a^2 + b^2 = -1 (mod p), which exists as every residue mod an odd prime
is a sum of two squares.  Group elements are 6-tuples of residues
(v0, v1, a, b, c, d): the vector part followed by the row-major matrix
part.  That encoding is what appears in JSON reports.

Q is checked once, where it is made: `QuaternionSubgroup` checks the two
defining relations, and its docstring argues what they imply (det 1,
eight elements, -I the only involution, det(I - M) in {2, 4} for
M != I); the tests check those consequences at every odd prime up to
the commands' default bound 97.  So G is a Frobenius group with kernel
V = C_p x C_p: no element of Q but I has a nonzero fixed vector.  Only
this module decides that structure: membership in V
(`SemidirectGroup.in_core`), the class partition
(`class_partition_holds`) and which classes make up V and V z
(`ClassTable.core` and `z_class`).  Classes are read off it (Q-orbits on
V, whole cosets of V off it), then one pass squares every element
(|G| = 8 p^2 for any odd prime p: 75,272 at the bound 97): the one
source of square facts.
"""

from .errors import InvariantError, UsageError
from .modp import Mat2, require_odd_prime

IDENTITY_MATRIX = (1, 0, 0, 1)  # the matrix part of every element of V

# conjugation convention used throughout: h ** g = g h g^-1


class QuaternionSubgroup:
    """The quaternion subgroup <X, Y> of SL2(p), the one place Q is checked; immutable.

    The constructor checks that p is an odd prime and the defining
    relations X^2 = Y^2 = -I and Y X Y^-1 = X^-1, and derives the rest
    from x and y: z = X^2, the elements in the order
    (I, z, X, -X, Y, -Y, XY, -XY), and class_of, which maps a matrix's
    entry 4-tuple to its class index in the order
    {1}, {z}, {X,-X}, {Y,-Y}, {XY,-XY}.  Equality and hash read (p, x, y).

    What the relations imply for odd p, argued here and tested at every
    odd p <= 97: by Cayley-Hamilton, M^2 = -I gives tr(M) M = (det M - 1) I,
    so a non-scalar M with M^2 = -I has trace 0 and det 1.  X, Y and XY
    are such M: (XY)^2 = X (Y X Y^-1) Y^2 = -I, and if one of them were
    scalar, X and Y would commute, giving X = Y X Y^-1 = X^-1 and
    X^2 = I != -I.  So +-X, +-Y and +-XY have det 1 and trace 0, while
    +-I have trace +-2; the eight are distinct (two of the six agreeing
    up to sign would again make X and Y commute), and -I is the only
    involution, as the six others square to -I.  det(I - M) = 2 - tr M
    is 2 or 4 for M != I, nonzero mod p, so no M != I has a nonzero fixed
    vector.  Y X = -X Y reduces every word in X and Y to one of the
    eight, so they form a group, in which conjugating by X or Y negates
    the other: its five classes are those above.
    """

    __slots__ = ("p", "x", "y", "z", "elements", "class_of")

    def __init__(self, p, x, y):
        ident, z = Mat2.identity(require_odd_prime(p)), x * x
        if z != y * y or z != ident.neg():
            raise InvariantError("quaternion relations fail: X^2 = Y^2 = -I expected")
        if y * x * y.inv() != x.inv():
            raise InvariantError("quaternion relations fail: Y X Y^-1 != X^-1")
        xy = x * y
        elements = (ident, z, x, x.neg(), y, y.neg(), xy, xy.neg())
        class_of = {m.entries(): k for m, k in zip(elements, (0, 1, 2, 2, 3, 3, 4, 4))}
        for name, value in zip(self.__slots__, (p, x, y, z, elements, class_of)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionSubgroup is immutable")

    def __eq__(self, other):
        if type(other) is not QuaternionSubgroup:
            return NotImplemented
        return (self.p, self.x, self.y) == (other.p, other.x, other.y)

    def __hash__(self):
        return hash((self.p, self.x, self.y))


def quaternion_subgroup(p):
    """The canonical quaternion subgroup of SL2(p) for an odd prime p."""
    require_odd_prime(p)
    a, b = next((a, b) for a in range(p) for b in range(p) if (a * a + b * b) % p == p - 1)
    return QuaternionSubgroup(p, Mat2.make(0, -1, 1, 0, p), Mat2.make(a, b, b, -a, p))


def conjugated_subgroup(q, t):
    """The subgroup t Q t^-1 for t in SL2(p); used for independence checks."""
    if t.det() != 1:
        raise UsageError("conjugating matrix must have det 1")
    ti = t.inv()
    return QuaternionSubgroup(q.p, t * q.x * ti, t * q.y * ti)


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
        calls.  `selftest`'s z-inverts-V line calls it, and the tests'
        brute-force and closure oracles call it most.
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
    and `z_class`, the class V z of (0, z), derived from `group` and
    `reps`; the centralizer orders |G| / |K| are read off the sizes.  Two
    caches ride along: `modular_image`, the last `modular.image_of`
    result, and `value_pool`, the character values of this table's build
    (`characters.induced_values` and `inflated_values` share one `RootSum`
    per distinct value through it).  A table made anew, even from another
    table's fields, derives `core` and `z_class` again and starts with
    both caches empty.  Equality is identity.
    """

    __slots__ = ("group", "reps", "sizes", "class_of", "square_map", "root_counts",
                 "core", "z_class", "modular_image", "value_pool")

    def __init__(self, group, reps, sizes, class_of, square_map, root_counts):
        self.group = group
        self.reps = reps                    # class index -> element index of the minimal rep
        self.sizes = sizes                  # class index -> class size
        self.class_of = class_of            # element index -> class index
        self.square_map = square_map        # class index -> class index of rep^2
        self.root_counts = root_counts      # class index K -> #{g : g^2 in K}
        self.core = frozenset(k for k, i in enumerate(reps) if group.in_core(group.elements[i]))
        self.z_class = class_of[group.index[(0, 0) + group.quaternion.z.entries()]]
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

    @property
    def centralizer_orders(self):
        """|C(K)| = |G| / |K| for every class K, by orbit-stabilizer; a new tuple per read."""
        order = self.order
        return tuple(order // s for s in self.sizes)

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
    V x K, K the class of M in Q (`QuaternionSubgroup.class_of`).  Those
    premises are the subgroup's, argued where it is made; what is checked
    here is the result: every element lies in exactly one class, and the
    sizes pass `class_partition_holds`.  Classes are numbered in order of
    their minimal element index, which is their representative.  One
    squaring pass over the elements fills in the square map and the root
    counts, raising unless a class squares into one class, so square facts
    are read off it by class.
    """
    p, elements, index = group.p, group.elements, group.index
    order = len(elements)
    q = group.quaternion
    vectors = [(v0, v1) for v0 in range(p) for v1 in range(p)]
    class_of = [-1] * order
    reps, sizes = [], []
    for i, e in enumerate(elements):
        if class_of[i] >= 0:
            continue
        v0, v1, m = e[0], e[1], e[2:]
        if group.in_core(e):
            members = {((n.a * v0 + n.b * v1) % p, (n.c * v0 + n.d * v1) % p) + m
                       for n in q.elements}
            size = len(members)
        else:  # generated, not stored: a coset class has up to 2 p^2 members
            conj = [c for c, k in q.class_of.items() if k == q.class_of[m]]
            members = (v + c for c in conj for v in vectors)
            size = len(conj) * len(vectors)
        k = len(reps)
        for h in members:
            j = index[h]
            if class_of[j] >= 0:
                raise InvariantError("conjugacy classes failed to partition the group")
            class_of[j] = k
        reps.append(i)
        sizes.append(size)
    if not class_partition_holds(order, sizes):
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
        class_of=tuple(class_of),
        square_map=tuple(square_map),
        root_counts=tuple(root_counts),
    )


def class_partition_holds(order, sizes):
    """Class sizes are positive, sum to |G| and divide it, so each |G| / |K| is an order."""
    return all(s > 0 and order % s == 0 for s in sizes) and sum(sizes) == order


def count_square_roots_of_identity(ct):
    """#{g in G : g^2 = 1}, by brute force; the literal oracle for `ct.root_counts`."""
    group = ct.group
    ident = group.identity
    return sum(1 for e in group.elements if group.mul(e, e) == ident)


def square_locus(group):
    """{g : g^2 in V} by brute force; the literal oracle for `CharacterTable.square_locus`."""
    return {e for e in group.elements if group.in_core(group.mul(e, e))}
