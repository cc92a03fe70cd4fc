"""Irreducible characters of G = (C_p x C_p) : Q8, built by hand.

The table has two kinds of rows: the five characters of Q8 inflated along
G -> G/V, and one induced character per orbit of nontrivial characters of
V under the Q8 action.  Assembly asserts the counting identities and full
first orthogonality before returning, and attaches a Frobenius-Schur
indicator to every row.

Every inner product, both orthogonality relations, the tensor-square
multiplicities, the class-formula indicators and the restriction to V are
decided in a prime field F_l by `modular.image_of`, which checks the rows
Galois-closed first; its docstring gives the argument why one residue
decides each exact sum.  The element-wise indicator is a root-count sum;
its literal per-element form lives in `selftest`.

TABLE_CHECKS, at the end, is the one ordered registry of named table
checks: `verify` records its verdicts in every report, `selftest` prints
them, and `serialize` validates cached documents with its integer
predicates.

Characters of V are labelled by pairs (a, b) of residues: the label (a, b)
sends v to zeta_p^(a v0 + b v1).  A matrix M moves labels by the
inverse-transpose, matching the convention that M sends the character
lambda to v |-> lambda(M^-1 v).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .cyclotomic import ZERO, Cyclotomic
from .errors import InvariantError, UsageError
from .groups import DEFAULT_PRIME_BOUND, build_group, conjugacy_classes
from .modular import image_of

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


def normalize_label(label, p):
    a, b = label
    return (a % p, b % p)


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


def induced_values(label, ct):
    """Induce the label's character of V up to G: orbit sums on V, zero off V."""
    label = normalize_label(label, ct.p)
    if label == (0, 0):
        raise UsageError("label must be nontrivial; the trivial character inflates instead")
    p = ct.p
    orbit = label_orbit(ct.group.quaternion, label)
    if len(orbit) != 8:
        raise InvariantError("induced from a label with nontrivial stabilizer")
    values = []
    for k in range(ct.n_classes):
        e = ct.rep_element(k)
        if e[2:] != IDENTITY_MATRIX:
            values.append(ZERO)
            continue
        v0, v1 = e[0], e[1]
        counts = [0] * p
        for a, b in orbit:
            counts[(a * v0 + b * v1) % p] += 1
        values.append(Cyclotomic(p, counts))
    return tuple(values)


def inflated_values(q8_values, ct):
    """Pull a Q8 character back to G along the quotient map G -> Q."""
    class_of = ct.group.quaternion.class_of
    return tuple(
        Cyclotomic(1, [q8_values[class_of[ct.rep_element(k)[2:]]]])
        for k in range(ct.n_classes)
    )


# -- inner products and indicators --------------------------------------------


def inner_product(ct, f, g):
    """Exact <f, g> = (1/|G|) sum over classes |K| f(K) conj(g(K)).

    f and g must be Galois-closed; table rows share the table's image.
    """
    image = image_of(ct, (f, g))
    return Fraction(image.exact_sum(image.residues[image.position(f)],
                                    image.conjugates[image.position(g)]), ct.order)


def restriction_to_core_inner(ct, values):
    """Exact [f restricted to V, trivial character of V]."""
    mask = [int(ct.rep_element(k)[2:] == IDENTITY_MATRIX) for k in range(ct.n_classes)]
    if sum(map(mul, ct.sizes, mask)) != ct.p ** 2:
        raise InvariantError("classes inside V do not cover V")
    image = image_of(ct, (values,))
    return Fraction(image.exact_sum(image.residues[image.position(values)], mask), ct.p ** 2)


def _rational_integer(value, what):
    if value.denominator != 1:
        raise InvariantError(f"{what} is not a rational integer: {value}")
    return int(value)


def fs_indicator(ct, values):
    """Frobenius-Schur indicator via the class formula and the square map."""
    image = image_of(ct, (values,))
    residues = image.residues[image.position(values)]
    total = image.exact_sum([residues[k2] for k2 in ct.square_map], [1] * ct.n_classes)
    return _rational_integer(Fraction(total, ct.order), "Frobenius-Schur indicator")


def fs_indicator_direct(ct, values):
    """The indicator as (1/|G|) sum_g chi(g^2), regrouped by the class of g^2.

    chi is a class function, so sum_g chi(g^2) = sum_K r(K) chi(K) with
    r(K) = #{g : g^2 in K}: the same finite sum of the same exact values,
    taken in `Cyclotomic` arithmetic, hence exact.  The counts `ct.root_counts`
    come from squaring every element (`groups.conjugacy_classes`).  Nothing
    here reads `square_map` or the class sizes, so a fault in the class
    formula's inputs cannot reach this route.  `selftest` keeps the literal
    per-element sum as its oracle.
    """
    n = lcm(*(v.n for v in values))
    acc = [0] * len(values[0].coeffs_at(n))
    for r, v in zip(ct.root_counts, values):
        if r:
            acc = [x + r * y for x, y in zip(acc, v.coeffs_at(n))]
    total = Cyclotomic(n, acc).as_rational()
    if total is None:
        raise InvariantError("element-wise indicator sum is not rational")
    return _rational_integer(total / ct.order, "element-wise Frobenius-Schur indicator")


# -- table assembly ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharRow:
    name: str
    values: tuple
    degree: int
    indicator: int


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rows certified by `assemble_character_table`, the only code that makes one.

    Assembly raises unless first orthogonality holds, and the frozen
    dataclass keeps the certified rows from being swapped afterwards.
    """

    class_table: object
    rows: tuple

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
        """{g : g^2 in V}, from the class table's squaring pass."""
        return self.class_table.square_locus

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
        label = normalize_label(label, self.prime)
        if label == (0, 0):
            raise UsageError("label must be nontrivial")
        rep = min(label_orbit(self.class_table.group.quaternion, label))
        return self.row(f"ind_{rep[0]}_{rep[1]}")


def check_first_orthogonality(ct, values_list):
    """<row_i, row_j> = delta_ij, exactly, for all pairs."""
    try:
        image = image_of(ct, values_list)
    except InvariantError as e:
        raise InvariantError(f"first orthogonality fails: {e}") from e
    rows = [image.position(f) for f in values_list]
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            got = image.exact_sum(image.residues[a], image.conjugates[rows[j]])
            if got != (ct.order if i == j else 0):
                raise InvariantError(f"first orthogonality fails at rows ({i}, {j}): "
                                     f"got {Fraction(got, ct.order)}")


def check_second_orthogonality(ct, values_list):
    """Column relations: sum over rows of chi(K) conj(chi(K')) = delta |C(K)|.

    Both orders of every class pair are checked mod l, which the modular
    kernel's argument needs to decide each relation exactly.
    """
    image = image_of(ct, values_list)
    rows = [image.position(f) for f in values_list]
    cols = list(zip(*(image.residues[i] for i in rows)))
    conj_cols = list(zip(*(image.conjugates[i] for i in rows)))
    for k in range(ct.n_classes):
        for k2 in range(k, ct.n_classes):
            want = ct.centralizer_orders[k] if k == k2 else 0
            if ((sum(map(mul, cols[k], conj_cols[k2])) - want) % image.ell
                    or (sum(map(mul, cols[k2], conj_cols[k])) - want) % image.ell):
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
    check_first_orthogonality(ct, [v for _, v, _ in named])

    rows = []
    for name, values, degree in named:
        ind = fs_indicator(ct, values)
        if ind not in (-1, 0, 1):
            raise InvariantError(f"indicator of irreducible row {name} is {ind}")
        rows.append(CharRow(name=name, values=values, degree=degree, indicator=ind))
    return CharacterTable(class_table=ct, rows=tuple(rows))


def character_table(p, quaternion=None, bound=DEFAULT_PRIME_BOUND):
    """Build everything for one prime: group, classes, then the table."""
    group = build_group(p, quaternion, bound)
    return assemble_character_table(conjugacy_classes(group))


def tensor_square_decompose(table, row):
    """Multiplicities of every table row in the pointwise square of `row`.

    Multiplicities must be non-negative integers and weight-sum to the
    squared degree; anything else means the table is corrupt.
    """
    ct = table.class_table
    image = image_of(ct, [r.values for r in table.rows] + [row.values])
    squared = [x * x % image.ell for x in image.residues[image.position(row.values)]]
    out = {}
    for r in table.rows:
        m = Fraction(image.exact_sum(squared, image.conjugates[image.position(r.values)]),
                     ct.order)
        mi = _rational_integer(m, f"multiplicity of {r.name}")
        if mi < 0:
            raise InvariantError(f"negative multiplicity {mi} of {r.name}")
        out[r.name] = mi
    if sum(m * table.row(nm).degree for nm, m in out.items()) != row.degree ** 2:
        raise InvariantError("tensor square multiplicities do not weight-sum to degree^2")
    return out


# -- table invariants ------------------------------------------------------------
#
# The integer predicates take plain numbers so that a cached table document
# can be validated without rebuilding the table.


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
    # assembly raised unless it held, and the frozen table keeps those rows
    return True, "all row pairs exactly orthonormal"


def _second_orthogonality(table):
    try:
        check_second_orthogonality(table.class_table, [r.values for r in table.rows])
    except InvariantError as e:
        return False, str(e)
    return True, "all class pairs match centralizer orders"


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
    return holds and table.square_roots_count == total, f"sum rule: {total} = 1 + {p}^2"


def _square_locus(table):
    """{g : g^2 in V} is exactly V together with the z-coset of V."""
    group = table.class_table.group
    z = group.quaternion.z.entries()
    expected = {e for e in group.elements if e[2:] in (IDENTITY_MATRIX, z)}
    locus = table.square_locus
    return (locus == expected and len(locus) == 2 * table.prime ** 2,
            f"|{{g : g^2 in V}}| = {len(locus)} = 2 p^2")


def _core_involution_squares(table):
    group = table.class_table.group
    z = group.quaternion.z.entries()
    return (all(group.mul(e, e) == group.identity
                for e in group.elements if e[2:] == z),
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
