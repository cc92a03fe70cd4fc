"""Irreducible characters of G = (C_p x C_p) : Q8, built by hand.

The table has two kinds of rows: the five characters of Q8 inflated along
G -> G/V, and one induced character per orbit of nontrivial characters of
V under the Q8 action.  Assembly asserts the counting identities and full
first orthogonality before returning, records what it proved on the
table, and attaches a Frobenius-Schur indicator to every row.

Every value is a `RootSum`, a count vector over the p-th roots of unity
with no arithmetic of its own.  Every inner product, first orthogonality,
the tensor-square multiplicities, the class-formula indicators and the
restriction to V are decided in a prime field F_l by `modular.image_of`,
which checks the rows Galois-closed, and so real, first; its docstring
gives the argument why one residue per value decides each exact sum, the
conjugate included.  Second orthogonality follows from the first for
a square table, so its verdict is derived (`_second_orthogonality`); the
column sums, also in F_l, are `selftest`'s oracle.  The element-wise
indicator is a root-count sum; its literal per-element form lives in
`selftest`.

TABLE_CHECKS, at the end, is the one ordered registry of named table
checks: `verify` records its verdicts in every report, and `selftest`
prints them.

Characters of V are labelled by pairs (a, b) of residues: the label (a, b)
sends v to zeta_p^(a v0 + b v1).  A matrix M moves labels by the
inverse-transpose, matching the convention that M sends the character
lambda to v |-> lambda(M^-1 v).
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

from .cyclotomic import RootSum
from .errors import InvariantError, UsageError
from .groups import build_group, conjugacy_classes
from .modular import count_vector, image_of

IDENTITY_MATRIX = (1, 0, 0, 1)

# values over the Q8 class order {1}, {z}, {+-X}, {+-Y}, {+-XY}
Q8_ROWS = (
    ("triv", (1, 1, 1, 1, 1)),
    ("linX", (1, 1, 1, -1, -1)),
    ("linY", (1, 1, -1, 1, -1)),
    ("linXY", (1, 1, -1, -1, 1)),
    ("psi", (2, -2, 0, 0, 0)),
)


def q8_character_table():
    """The five irreducible characters of Q8 as (name, values) pairs."""
    return Q8_ROWS


# -- labels and the Q8 action on them ---------------------------------------


def nontrivial_label(label, p):
    """The label reduced mod p; UsageError if it is the trivial label (0, 0)."""
    a, b = label
    label = (a % p, b % p)
    if label == (0, 0):
        raise UsageError("label must be nontrivial")
    return label


def default_label(p):
    """Lexicographically smallest nontrivial label."""
    return (0, 1)


def label_action(m, label):
    """Label of the moved character: inverse-transpose times the label."""
    p = m.p
    l0, l1 = label
    # M^-1 = [[d,-b],[-c,a]] for det 1; transpose it
    return ((m.d * l0 - m.c * l1) % p, (-m.b * l0 + m.a * l1) % p)


def stabilizer_in_q(q, label):
    """All matrices of Q fixing the label."""
    return tuple(m for m in q.elements if label_action(m, label) == label)


def label_orbit(q, label):
    """The orbit of the label under Q, sorted."""
    return tuple(sorted({label_action(m, label) for m in q.elements}))


def label_orbits(q):
    """Lexicographically minimal representatives of the nontrivial orbits.

    Every nontrivial orbit must have size exactly 8 (trivial stabilizer);
    anything else is an internal error.
    """
    p = q.p
    seen = set()
    reps = []
    for a in range(p):
        for b in range(p):
            label = (a, b)
            if label == (0, 0) or label in seen:
                continue
            orbit = label_orbit(q, label)
            if len(orbit) != 8:
                raise InvariantError(f"label orbit of {label} has size {len(orbit)}, not 8")
            reps.append(label)
            seen.update(orbit)
    if len(reps) != (p * p - 1) // 8:
        raise InvariantError("wrong number of label orbits")
    return tuple(reps)


# -- the two row constructions ------------------------------------------------


def _pooled(ct, key):
    """The one `RootSum` of this table build named by key, made on first use.

    A key is an int x, for x copies of zeta^0 (inflated values, and zero
    off V), or the sorted exponents of an induced value's eight roots;
    the two never name one count vector, as inflated values are at most 2.
    The pool lives on the class table (`ClassTable.value_pool`), so equal
    values share one object within a build and nothing across builds.
    """
    value = ct.value_pool.get(key)
    if value is None:
        counts = [0] * ct.p
        if type(key) is int:
            counts[0] = key
        else:
            for e in key:
                counts[e] += 1
        value = ct.value_pool[key] = RootSum(ct.p, counts)
    return value


def induced_values(label, ct):
    """Induce the label's character of V up to G: orbit sums on V, zero off V.

    At v in V, zeta^e is counted once per orbit label (a, b) with a v0 + b v1 = e.
    """
    label = nontrivial_label(label, ct.p)
    p = ct.p
    orbit = label_orbit(ct.group.quaternion, label)
    if len(orbit) != 8:
        raise InvariantError("induced from a label with nontrivial stabilizer")
    zero = _pooled(ct, 0)
    values = []
    for e in map(ct.group.elements.__getitem__, ct.reps):
        if e[2:] != IDENTITY_MATRIX:
            values.append(zero)
            continue
        v0, v1 = e[0], e[1]
        values.append(_pooled(ct, tuple(sorted([(a * v0 + b * v1) % p for a, b in orbit]))))
    return tuple(values)


def inflated_values(q8_values, ct):
    """Pull a Q8 character back to G along the quotient map G -> Q."""
    class_of = ct.group.quaternion.class_of
    lifted = [_pooled(ct, x) for x in q8_values]
    return tuple(lifted[class_of[ct.rep_element(k)[2:]]] for k in range(ct.n_classes))


# -- inner products and indicators --------------------------------------------


def inner_product(ct, f, g):
    """Exact <f, g> = (1/|G|) sum over classes |K| f(K) conj(g(K)).

    f and g must be Galois-closed; table rows share the table's image.
    """
    image = image_of(ct, (f, g))
    [total] = image.exact_sums(image.residues[image.position(f)], [g])
    return Fraction(total, ct.order)


def restriction_to_core_inner(ct, values):
    """Exact [f restricted to V, trivial character of V]."""
    mask = [int(ct.rep_element(k)[2:] == IDENTITY_MATRIX) for k in range(ct.n_classes)]
    if sum(map(mul, ct.sizes, mask)) != ct.p ** 2:
        raise InvariantError("classes inside V do not cover V")
    image = image_of(ct, (values,))
    [total] = image.exact_sums(mask, [values])
    return Fraction(total, ct.p ** 2)


def _exact_quotient(total, divisor, what):
    """total / divisor, which must be an integer; a Fraction is made only for the error."""
    quotient, remainder = divmod(total, divisor)
    if remainder:
        raise InvariantError(f"{what} is not a rational integer: {Fraction(total, divisor)}")
    return quotient


def _pulled_sizes(ct):
    """For each class L, the sum of |K| over the classes K with sq K = L: #{g : g^2 in L}."""
    pulled = [0] * ct.n_classes
    for size, target in zip(ct.sizes, ct.square_map):
        pulled[target] += size
    return pulled


def fs_indicators(ct, values_list):
    """Frobenius-Schur indicators via the class formula and the square map, one per row.

    The class formula sum_K |K| chi(sq K), regrouped by L = sq K, is
    sum_L |L| u(L) chi(L) with u(L) = (sum of |K| over sq K = L) / |L|,
    an identity in F_l, where every |L| is a unit (the image checks
    0 < |L| < l).  u does not depend on chi, so one packed sum against u
    gives every row's indicator.
    """
    image = image_of(ct, values_list)
    u = [x * pow(size, -1, image.ell) for x, size in zip(_pulled_sizes(ct), ct.sizes)]
    return [_exact_quotient(total, ct.order, "Frobenius-Schur indicator")
            for total in image.exact_sums(u, values_list)]


def fs_indicator(ct, values):
    """The Frobenius-Schur indicator of one row by the class formula (`fs_indicators`)."""
    [indicator] = fs_indicators(ct, (values,))
    return indicator


def fs_indicator_direct(ct, values):
    """The indicator as (1/|G|) sum_g chi(g^2), regrouped by the class of g^2.

    chi is a class function, so sum_g chi(g^2) = sum_K r(K) chi(K) with
    r(K) = #{g : g^2 in K}: the same finite sum of the same exact values,
    taken on root counts (`modular.count_vector`) in integers, hence exact;
    it is rational exactly when its counts of zeta^1 .. zeta^(p-1) agree.
    The counts `ct.root_counts` come from squaring every element
    (`groups.conjugacy_classes`).  Nothing here reads `square_map` or the
    class sizes, so a fault in the class formula's inputs cannot reach
    this route.  `selftest` keeps the literal per-element sum as its oracle.
    """
    p = ct.p
    acc = [0] * p
    for r, v in zip(ct.root_counts, values):
        if r:
            acc = [x + r * y for x, y in zip(acc, count_vector(v, p))]
    if len(set(acc[1:])) != 1:
        raise InvariantError("element-wise indicator sum is not rational")
    return _exact_quotient(acc[0] - acc[1], ct.order, "element-wise Frobenius-Schur indicator")


# -- table assembly ------------------------------------------------------------


class CharRow:
    """One named row of a character table; immutable, equal only to itself."""

    __slots__ = ("name", "values", "degree", "indicator")

    def __init__(self, name, values, degree, indicator):
        for field, value in zip(self.__slots__, (name, values, degree, indicator)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError("CharRow is immutable")


class CharacterTable:
    """Rows certified by `assemble_character_table`, the only code that makes one.

    Assembly raises unless first orthogonality holds, and records what it
    proved as `certificate`: the class sizes and the row values it found
    orthonormal.  Both orthogonality verdicts of `TABLE_CHECKS` hold only
    while the table still has those sizes and values, so a table built
    directly, or rebuilt from an assembled table's fields with one of them
    changed, reads False.  Immutable, and equal only to itself.
    """

    def __init__(self, class_table, rows, certificate=()):
        vars(self).update(class_table=class_table, rows=rows, certificate=certificate)

    def __setattr__(self, name, value):
        raise AttributeError("CharacterTable is immutable")

    @property
    def prime(self):
        return self.class_table.p

    @property
    def order(self):
        return self.class_table.order

    @cached_property
    def row_index_by_name(self):
        return {r.name: i for i, r in enumerate(self.rows)}

    @property
    def square_locus(self):
        """{g : g^2 in V} as the classes K with sq(K) inside V, read from the square map."""
        ct = self.class_table
        return tuple(k for k, t in enumerate(ct.square_map) if ct.group.in_core(ct.rep_element(t)))

    @property
    def square_roots_count(self):
        """#{g : g^2 = 1}: r of the identity class, which is class 0."""
        return self.class_table.root_counts[0]

    @cached_property
    def psi_index(self):
        """Index of the unique degree-2 row."""
        hits = [i for i, r in enumerate(self.rows) if r.degree == 2]
        if len(hits) != 1:
            raise InvariantError(f"expected exactly one degree-2 row, found {len(hits)}")
        return hits[0]

    def row(self, name):
        return self.rows[self.row_index_by_name[name]]

    def induced_row_for_label(self, label):
        """The induced row whose label orbit contains the given label."""
        label = nontrivial_label(label, self.prime)
        rep = min(label_orbit(self.class_table.group.quaternion, label))
        return self.row(f"ind_{rep[0]}_{rep[1]}")


def check_first_orthogonality(ct, values_list):
    """<row_i, row_j> = delta_ij, exactly, for all pairs."""
    try:
        image = image_of(ct, values_list)
    except InvariantError as e:
        raise InvariantError(f"first orthogonality fails: {e}") from e
    for i, f in enumerate(values_list):
        sums = image.exact_sums(image.residues[image.position(f)], values_list[i:])
        for j, got in enumerate(sums, i):
            if got != (ct.order if i == j else 0):
                raise InvariantError(f"first orthogonality fails at rows ({i}, {j}): "
                                     f"got {Fraction(got, ct.order)}")


def check_second_orthogonality(ct, values_list):
    """Column relations: sum over rows of chi(K) conj(chi(K')) = delta |C(K)|.

    `selftest`'s oracle for the derived verdict of `TABLE_CHECKS`.  The
    rows are real, so each sum is symmetric in the two classes, and one
    check mod l per unordered class pair decides every relation exactly
    (step 4 of the modular kernel's argument).
    """
    image = image_of(ct, values_list)
    rows = [image.position(f) for f in values_list]
    cols = list(zip(*(image.residues[i] for i in rows)))
    for k in range(ct.n_classes):
        for k2 in range(k, ct.n_classes):
            want = ct.centralizer_orders[k] if k == k2 else 0
            if (sum(map(mul, cols[k], cols[k2])) - want) % image.ell:
                raise InvariantError(
                    f"second orthogonality fails at classes ({k}, {k2})")


def assemble_character_table(ct):
    """All irreducible characters of G, with counting and orthogonality asserted."""
    named = [(name, inflated_values(vals, ct), vals[0]) for name, vals in Q8_ROWS]
    for rep in label_orbits(ct.group.quaternion):
        named.append((f"ind_{rep[0]}_{rep[1]}", induced_values(rep, ct), 8))

    if len(named) != ct.n_classes:
        raise InvariantError(
            f"row count {len(named)} != class count {ct.n_classes}")
    if not degree_sum_holds(ct.order, [d for _, _, d in named]):
        raise InvariantError("degrees squared do not sum to |G|")
    for name, values, degree in named:
        if values[0] != degree:
            raise InvariantError(f"row {name}: value at the identity != degree")
    values_list = tuple(v for _, v, _ in named)
    check_first_orthogonality(ct, values_list)

    rows = []
    for (name, values, degree), ind in zip(named, fs_indicators(ct, values_list)):
        if ind not in (-1, 0, 1):
            raise InvariantError(f"indicator of irreducible row {name} is {ind}")
        rows.append(CharRow(name=name, values=values, degree=degree, indicator=ind))
    return CharacterTable(class_table=ct, rows=tuple(rows), certificate=(ct.sizes, values_list))


def character_table(p, quaternion=None):
    """Build everything for one prime: group, classes, then the table."""
    group = build_group(p, quaternion)
    return assemble_character_table(conjugacy_classes(group))


def tensor_square_decompose(table, row):
    """Multiplicities of every table row in the pointwise square of `row`.

    Multiplicities must be non-negative integers and weight-sum to the
    squared degree; anything else means the table is corrupt.
    """
    ct = table.class_table
    image = image_of(ct, [r.values for r in table.rows] + [row.values])
    squared = [x * x % image.ell for x in image.residues[image.position(row.values)]]
    sums = image.exact_sums(squared, [r.values for r in table.rows])
    out = {}
    for r, total in zip(table.rows, sums):
        mi = _exact_quotient(total, ct.order, f"multiplicity of {r.name}")
        if mi < 0:
            raise InvariantError(f"negative multiplicity {mi} of {r.name}")
        out[r.name] = mi
    if sum(m * table.row(nm).degree for nm, m in out.items()) != row.degree ** 2:
        raise InvariantError("tensor square multiplicities do not weight-sum to degree^2")
    return out


# -- table invariants ------------------------------------------------------------
#
# The integer predicates take plain numbers, so that assembly can check the
# degrees before the table exists and `verify` and `selftest` share them.


def family_class_count(p):
    """Classes (and irreducible characters) of G: 5 + (p^2 - 1)/8."""
    return 5 + (p * p - 1) // 8


def class_partition_holds(order, sizes, centralizers):
    """Class sizes sum to |G|, divide it, and |K| |C(K)| = |G| for every class."""
    # products before the modulus, so a zero size fails instead of raising
    return (sum(sizes) == order
            and all(s * c == order for s, c in zip(sizes, centralizers))
            and all(order % s == 0 for s in sizes))


def degree_sum_holds(order, degrees):
    """The squared degrees sum to |G|."""
    return sum(d * d for d in degrees) == order


def fs_sum_rule(p, degrees, indicators):
    """(holds, total): sum of indicator * degree = #{g : g^2 = 1} = 1 + p^2."""
    total = sum(i * d for d, i in zip(degrees, indicators))
    return total == 1 + p * p, total


def quaternionic_row_unique(degrees, indicators):
    """The only indicator -1 sits on the unique degree-2 row."""
    return (list(degrees).count(2) == 1
            and [d for d, i in zip(degrees, indicators) if i == -1] == [2])


def _first_orthogonality(table):
    # assembly raised unless it held for the sizes and values it certified;
    # RootSum's == compares values, so re-represented counts still match
    ok = table.certificate == (table.class_table.sizes, tuple(r.values for r in table.rows))
    return ok, ("all row pairs exactly orthonormal" if ok
                else "rows or class sizes are not those assembly certified orthonormal")


def _second_orthogonality(table):
    # Assembly has as many rows as classes, so the table X is square.  With
    # D = diag(|K| / |G|), first orthogonality X D X^* = I gives X^-1 = D X^*,
    # hence X^* X = D^-1: the column sums are delta |G| / |K|, which is
    # delta |C(K)| once |K| |C(K)| = |G| (Isaacs, proof of Theorem 2.18).
    # That |G| is the one assembly used: the trivial row's norm gives it as
    # sum |K|, which `class_partition_holds` also checks.
    ct = table.class_table
    ok = (_first_orthogonality(table)[0]
          and class_partition_holds(ct.order, ct.sizes, ct.centralizer_orders))
    return ok, ("all class pairs match centralizer orders" if ok
                else "not implied: rows not certified orthonormal, or class sizes "
                     "times centralizer orders are not |G|")


def _degree_sum(table):
    order = table.order
    return (degree_sum_holds(order, [r.degree for r in table.rows]),
            f"sum of degree^2 = {order} = |G|")


def _class_partition(table):
    ct = table.class_table
    return (class_partition_holds(ct.order, ct.sizes, ct.centralizer_orders),
            f"{ct.n_classes} classes, sizes {sorted(ct.sizes)}")


def _sum_rule(table):
    p = table.prime
    holds, total = fs_sum_rule(p, [r.degree for r in table.rows],
                               [r.indicator for r in table.rows])
    # the root counts r(K) must be what the square map pulls back: r(L) = #{g : g^2 in L}
    ok = (holds and table.square_roots_count == total
          and _pulled_sizes(table.class_table) == list(table.class_table.root_counts))
    return ok, f"sum rule: {total} = 1 + {p}^2"


def _z_class(ct):  # the class of (0, z), which is V z; None when z is not in G
    i = ct.group.index.get((0, 0) + ct.group.quaternion.z.entries())
    return None if i is None else ct.class_of[i]


def _square_locus(table):
    """{g : g^2 in V}, a union of classes, is exactly V together with the z-coset of V."""
    ct, locus = table.class_table, table.square_locus
    core = {k for k in range(ct.n_classes) if ct.group.in_core(ct.rep_element(k))}
    size = sum(ct.sizes[k] for k in locus)
    return (set(locus) == core | {_z_class(ct)} and size == 2 * table.prime ** 2,
            f"|{{g : g^2 in V}}| = {size} = 2 p^2")


def _core_involution_squares(table):
    # the squaring pass sent every element of the class V z to class 0, {1}
    ct, kz = table.class_table, _z_class(table.class_table)
    return (kz is not None and ct.sizes[kz] == table.prime ** 2 and ct.square_map[kz] == 0,
            "every (v z)^2 = 1")


def _induced_vanish_off_core(table):
    ct = table.class_table
    off_core = [k for k in range(ct.n_classes) if ct.rep_element(k)[2:] != IDENTITY_MATRIX]
    return (all(r.values[k].is_zero()
                for r in table.rows if r.name.startswith("ind_") for k in off_core),
            "every induced row is zero outside V")


# name -> fn(table) -> (ok, detail); the order is the order of Report.checks
TABLE_CHECKS = (
    ("first_orthogonality", _first_orthogonality),
    ("second_orthogonality", _second_orthogonality),
    ("degree_sum", _degree_sum),
    ("class_partition", _class_partition),
    ("sum_rule", _sum_rule),
    ("square_locus", _square_locus),
    ("core_involution_squares", _core_involution_squares),
    ("induced_vanish_off_core", _induced_vanish_off_core),
)
