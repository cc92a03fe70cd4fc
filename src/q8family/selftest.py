"""Per-prime invariant suite: every structural property the library relies on.

This is the slow-but-independent path: the literal element-wise indicator
sum, the averaging form of induction, brute-force counts, and inner
products summed exactly on Z[zeta_p] counts, against which the F_l
kernel, the root-count indicator, the squaring pass and the rows' root
counts are compared.  A sum builds one `Cyclotomic`, from its total
counts, to read its rational value.  Each check reports one line;
the CLI turns any failure into exit code 3.  An oracle line after
assembly that raises InvariantError fails with the error's text, and the
run goes on to the next line.  The table-level lines (class
partition, degree sum, first orthogonality, square locus, vanishing off V
and the sum rule) take their verdicts and details from the shared
registry `characters.TABLE_CHECKS`.
The registry derives second orthogonality from the first; the
`second_orthogonality` line also runs the column sums in F_l
(`check_second_orthogonality`, step 4 of `modular`'s argument) as the
oracle of that derived verdict.

Group work that no row changes is done once per group and shared.  Each
class representative g = (v, M) is conjugated by every element of G
once, by blocks of one matrix part N: x = (w, N) is the translation
(w, I) times (0, N), so x g x^-1 is (0, N) g (0, N)^-1 = (N v, M'),
M' = N M N^-1, conjugated by (w, I), which is ((I - M') w + N v, M').
One product per block gives that affine map, and each x still counts its
own conjugate; every label reads the counts of conjugates in V.  Each
element is squared once, and `square_map_total`, `square_roots_count`
and every row of the element-wise indicator read those squares.  The
memos are bounded, hold elements, counts or indices only, and are keyed
on the group object (and the representative), never on a label, so what
they hold is a fact about G alone; the one exception is the indicator's
grouping of those squares by class, which is keyed on the class table
whose `class_of` it reads, and no row changes it.  The oracles stay
independent of the routes they check: the averaging sum still runs over
every x in G and never uses orbits, and the indicator is still one term
per element, each square found by multiplication, not read from the
class table's squaring pass or root counts, and only then grouped by
the class of g^2.
"""

import operator
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

from .characters import (IDENTITY_MATRIX, Q8_ROWS, TABLE_CHECKS,
                         assemble_character_table, check_second_orthogonality,
                         default_label, family_class_count, fs_indicator_direct,
                         inner_product, label_orbit, label_orbits,
                         stabilizer_in_q, tensor_square_decompose)
from .cyclotomic import Cyclotomic, RootSum, root_of_unity
from .errors import InvariantError
from .groups import build_group, conjugacy_classes
from .modp import DEFAULT_PRIME_BOUND, require_odd_prime

ASSOCIATIVITY_SAMPLES = 300
FULL_ORACLE_PRIME_LIMIT = 7  # run the averaging and inner-product oracles on all rows up to here


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


@lru_cache(maxsize=4)
def _elements_by_matrix(group):
    """The elements of G grouped by matrix part: ((N, (x, ...)), ...), each element once."""
    blocks = {}
    for e in group.elements:
        blocks.setdefault(e[2:], []).append(e)
    return tuple((n, tuple(xs)) for n, xs in blocks.items())


def _conjugates_by_matrix(group, g):
    """{M': Counter({y0 * p + y1: #x})}, x g x^-1 = (y0, y1, M'), over all x in G by blocks."""
    p, mul, inv = group.p, group.mul, group.inv
    conjugates = {}
    for n, xs in _elements_by_matrix(group):
        h = (0, 0) + n
        u0, u1, ma, mb, mc, md = mul(mul(h, g), inv(h))
        ia, ib, ic, id_ = 1 - ma, -mb, -mc, 1 - md
        counts = conjugates.setdefault((ma, mb, mc, md), Counter())
        counts.update((ia * w0 + ib * w1 + u0) % p * p + (ic * w0 + id_ * w1 + u1) % p
                      for w0, w1, _, _, _, _ in xs)
    return conjugates


@lru_cache(maxsize=64)
def _conjugates_in_core(group, g):
    """The counts {(y0, y1): #x} over every x in G with x g x^-1 = (y0, y1, I).

    One pass of |G| conjugates per group and representative, whatever the
    label, filtered to V afterwards; counts only, as a tuple of items.
    """
    in_core = _conjugates_by_matrix(group, g).get(IDENTITY_MATRIX, {})
    return tuple((divmod(y, group.p), n) for y, n in in_core.items())


def induced_by_averaging(label, ct):
    """Independent induction oracle: (1/|V|) sum over x of lambda(x g x^-1).

    lambda is the label's character on V extended by zero off V; this is
    the textbook averaging form of induction and never looks at orbits.
    The division by |V| = p^2 is exact, count by count, for a correct
    group: each of the 8 conjugates (N v, I) of a g in V is hit by exactly
    the p^2 elements (w, N), and no conjugate of a g off V lies in V.  A
    count that is not a multiple of p^2 raises InvariantError.
    """
    group = ct.group
    p = group.p
    core_order = p * p
    a, b = label
    values = []
    for k in range(ct.n_classes):
        counts = [0] * p
        for (y0, y1), n in _conjugates_in_core(group, ct.rep_element(k)):
            counts[(a * y0 + b * y1) % p] += n
        if any(c % core_order for c in counts):
            raise InvariantError(f"averaging sum of label {label} at class {k} "
                                 f"is not divisible by |V| = {core_order}")
        values.append(Cyclotomic(p, [c // core_order for c in counts]))
    return tuple(values)


def exact_inner_product(ct, f, g):
    """Independent inner-product oracle: the exact sum on counts in Z[zeta_p], where
    zeta^i times the conjugate of zeta^j is zeta^(i - j)."""
    p = ct.p
    total = [0] * p
    for size, fv, gv in zip(ct.sizes, f, g):
        terms = [(j, y) for j, y in enumerate(gv.counts) if y]
        for i, x in enumerate(fv.counts):
            if x:
                for j, y in terms:
                    total[(i - j) % p] += size * x * y
    r = Cyclotomic(p, total).as_rational()
    if r is None:
        raise InvariantError("inner product of class functions is not rational")
    return Fraction(r, ct.order)


@lru_cache(maxsize=4)
def _square_indices(group):
    """The element index of g^2 for each g in G, in element order."""
    index, mul = group.index, group.mul
    return tuple(index[mul(e, e)] for e in group.elements)


@lru_cache(maxsize=4)
def _landing_counts(ct):
    """(K, n_K) pairs, n_K the number of elements whose square lies in class K."""
    return tuple(Counter(map(ct.class_of.__getitem__, _square_indices(ct.group))).items())


def element_wise_indicator(ct, values):
    """Independent indicator oracle: (1/|G|) sum of chi(g^2), one term per element,
    as n_K chi(K) on counts, n_K the number of elements whose square lies in K."""
    landed = _landing_counts(ct)
    total = [sum(n * values[k].counts[e] for k, n in landed) for e in range(ct.p)]
    r = Cyclotomic(ct.p, total).as_rational()
    if r is None:
        raise InvariantError("element-wise indicator sum is not rational")
    return Fraction(r, ct.order)


def q8_table_checks():
    """Orthonormality of the five Q8 rows over class sizes (1, 1, 2, 2, 2)."""
    sizes = (1, 1, 2, 2, 2)
    for i, (_, f) in enumerate(Q8_ROWS):
        for j, (_, g) in enumerate(Q8_ROWS):
            total = sum(s * x * y for s, x, y in zip(sizes, f, g))
            if total != (8 if i == j else 0):
                return False
    return Q8_ROWS[4][1] == (2, -2, 0, 0, 0)


def run_selftest(p, bound=DEFAULT_PRIME_BOUND):
    """All invariant checks for one odd prime p <= bound; returns the per-check results."""
    require_odd_prime(p, bound)
    results = []

    def check(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    def oracle(name, run):
        """check(name, *run()), or a FAIL with the text of the InvariantError run raises."""
        try:
            check(name, *run())
        except InvariantError as e:
            check(name, False, str(e))

    # exact arithmetic used below: zeta has order p, so its minimal polynomial is Phi_p
    z1 = root_of_unity(p, 1)
    powers = list(accumulate(repeat(z1, p), operator.mul, initial=Cyclotomic(p, [1])))
    zeta_sum = sum(powers[:p], Cyclotomic(p, []))
    check("cyclotomic_basics",
          zeta_sum == 0 and powers[p] == 1 and all(z != 1 for z in powers[1:p])
          and z1 * z1.conjugate() == 1 and z1.conjugate().conjugate() == z1,
          f"sum of p-th roots = {zeta_sum}; Phi_p all-ones")

    group = build_group(p)
    q = group.quaternion
    order = len(group)
    check("quaternion_subgroup", True,
          f"X={q.x.entries()} Y={q.y.entries()}, relations verified at build")

    ident = group.identity
    inverses_ok = all(group.mul(e, group.inv(e)) == ident for e in group.elements)
    rng = random.Random(0)
    assoc_ok = True
    for _ in range(ASSOCIATIVITY_SAMPLES):
        g, h, k = (group.elements[rng.randrange(order)] for _ in range(3))
        if group.mul(group.mul(g, h), k) != group.mul(g, group.mul(h, k)):
            assoc_ok = False
            break
    check("group_axioms", inverses_ok and assoc_ok,
          f"|G| = {order}; inverses all, associativity on {ASSOCIATIVITY_SAMPLES} triples")

    z_elem = (0, 0) + q.z.entries()
    inverts = all(
        group.conj(z_elem, (v0, v1) + IDENTITY_MATRIX)
        == ((-v0) % p, (-v1) % p) + IDENTITY_MATRIX
        for v0 in range(p) for v1 in range(p))
    check("z_inverts_core", inverts, "conjugation by z negates every v in V")

    ct = conjugacy_classes(group)
    table = assemble_character_table(ct)
    rows = table.rows
    verdict = {name: fn(table) for name, fn in TABLE_CHECKS}

    check("class_partition", *verdict["class_partition"])
    check("class_count", ct.n_classes == family_class_count(p),
          f"{ct.n_classes} = 5 + ({p}^2-1)/8")

    sq_ok = all(ct.class_of[s] == ct.square_map[ct.class_of[i]]
                for i, s in enumerate(_square_indices(group)))
    check("square_map_total", sq_ok, "square map agrees on 100% of elements")

    roots = table.square_roots_count
    check("square_roots_count",
          roots == 1 + p * p == _square_indices(group).count(group.index[ident]),
          f"{roots} solutions of g^2 = 1; predicted 1 + p^2 = {1 + p * p}")

    locus_ok, locus_detail = verdict["square_locus"]
    vz_ok, vz_detail = verdict["core_involution_squares"]
    check("square_locus", locus_ok and vz_ok, f"{locus_detail}; {vz_detail}")

    nontrivial = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    stab_ok = all(len(stabilizer_in_q(q, l)) == 1 for l in nontrivial)
    check("label_stabilizers", stab_ok,
          f"all {len(nontrivial)} nontrivial labels have trivial stabilizer in Q")

    orbits = label_orbits(q)
    orbit_sizes_ok = all(len(label_orbit(q, l)) == 8 for l in orbits)
    check("label_orbits",
          len(orbits) == (p * p - 1) // 8 and orbit_sizes_ok,
          f"orbit count {len(orbits)} = ({p}^2-1)/8, all of size 8")

    check("q8_table", q8_table_checks(),
          "5 rows orthonormal over Q8; degree-2 values (2, -2, 0, 0, 0)")

    check("row_count", len(rows) == ct.n_classes,
          f"{len(rows)} rows = {ct.n_classes} classes")
    for name in ("degree_sum", "first_orthogonality"):
        check(name, *verdict[name])

    def column_sums():
        check_second_orthogonality(ct, [r.values for r in rows])
        return verdict["second_orthogonality"]

    oracle("second_orthogonality", column_sums)
    check("induced_vanish_off_core", *verdict["induced_vanish_off_core"])

    if p <= FULL_ORACLE_PRIME_LIMIT:
        oracle_labels = list(orbits)
    else:
        oracle_labels = [min(label_orbit(q, default_label(p)))]
    oracle("induction_oracle", lambda: (
        all(induced_by_averaging(l, ct) == table.induced_row_for_label(l).values
            for l in oracle_labels),
        f"averaging formula matches orbit sums on {len(oracle_labels)} row(s)"))

    oracle("indicator_oracle", lambda: (
        all(r.indicator == fs_indicator_direct(ct, r.values)
            == element_wise_indicator(ct, r.values) for r in rows),
        "class-formula indicator = element-wise sum on every row"))

    negatives = [r.name for r in rows if r.indicator == -1]
    check("indicator_signs",
          negatives == ["psi"] and all(r.indicator == 1 for r in rows if r.name != "psi"),
          "exactly one indicator -1, on the degree-2 row")

    check("fs_sum_rule", *verdict["sum_rule"])

    primes_ok = all(v.p == p for r in rows for v in r.values)
    # a rational value of Z[zeta_p] is a rational integer
    inflated_ok = all(v.as_rational() is not None for r in rows
                      if not r.name.startswith("ind_") for v in r.values)
    check("values_in_base_field", primes_ok and inflated_ok,
          "values lie in Q(zeta_p); inflated rows are rational integers")

    chi = table.induced_row_for_label(default_label(p))

    def tensor_square():
        dec = tensor_square_decompose(table, chi)
        weight = sum(m * table.row(nm).degree for nm, m in dec.items())
        return (all(m >= 0 for m in dec.values()) and weight == 64
                and dec["triv"] == 1 and dec["psi"] >= 1,
                f"multiplicities >= 0, weight sum {weight} = 64, "
                f"[triv] = {dec['triv']}, [psi] = {dec['psi']}")

    oracle("tensor_square", tensor_square)

    if p <= FULL_ORACLE_PRIME_LIMIT:
        pairs = [(f, g) for i, f in enumerate(rows) for g in rows[i:]]
    else:
        pairs = [(chi, g) for g in rows]
    squared = tuple(v * v for v in map(RootSum.to_cyclotomic, chi.values))
    # the F_l [chi^2, psi] is decomposed again (well under a millisecond), so
    # an InvariantError of the tensor_square line also fails this one
    oracle("orthogonality_oracle", lambda: (
        all(inner_product(ct, f.values, g.values)
            == exact_inner_product(ct, f.values, g.values) for f, g in pairs)
        and tensor_square_decompose(table, chi)["psi"]
        == exact_inner_product(ct, squared, table.row("psi").values),
        f"F_l kernel = exact Cyclotomic sum on {len(pairs)} row pair(s) and [chi^2, psi]"))

    return results
