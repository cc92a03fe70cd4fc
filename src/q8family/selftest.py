"""Per-prime invariant suite: every structural property the library relies on.

This is the slow-but-independent path: the literal element-wise indicator
sum, the averaging form of induction, brute-force counts, and inner
products in exact `Cyclotomic` arithmetic, against which the F_l kernel,
the root-count indicator and the squaring pass are compared.  Each check
reports one line; the CLI turns any failure into exit code 3.  The
table-level lines (class partition, degree sum, both orthogonality
relations, square locus, vanishing off V and the sum rule) take their
verdicts and details from the shared registry `characters.TABLE_CHECKS`.
"""

import random
from dataclasses import dataclass
from math import lcm

from .characters import (IDENTITY_MATRIX, Q8_ROWS, TABLE_CHECKS,
                         assemble_character_table, default_label,
                         family_class_count, fs_indicator_direct, inner_product,
                         label_orbit, label_orbits, stabilizer_in_q,
                         tensor_square_decompose)
from .cyclotomic import ZERO, Cyclotomic, cyclotomic_polynomial, root_of_unity
from .errors import InvariantError
from .groups import (DEFAULT_PRIME_BOUND, build_group, conjugacy_classes,
                     count_square_roots_of_identity, require_odd_prime)

ASSOCIATIVITY_SAMPLES = 300
FULL_ORACLE_PRIME_LIMIT = 7  # run the averaging and inner-product oracles on all rows up to here


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def induced_by_averaging(label, ct):
    """Independent induction oracle: (1/|V|) sum over x of lambda(x g x^-1).

    lambda is the label's character on V extended by zero off V; this is
    the textbook averaging form of induction and never looks at orbits.
    """
    group = ct.group
    p = group.p
    a, b = label
    values = []
    for k in range(ct.n_classes):
        g = ct.rep_element(k)
        counts = [0] * p
        for x in group.elements:
            y = group.conj(x, g)
            if y[2:] == IDENTITY_MATRIX:
                counts[(a * y[0] + b * y[1]) % p] += 1
        values.append(Cyclotomic(p, counts) / (p * p))
    return tuple(values)


def exact_inner_product(ct, f, g):
    """Independent inner-product oracle: the sum taken in exact `Cyclotomic` arithmetic."""
    total = ZERO
    for size, fv, gv in zip(ct.sizes, f, g):
        if fv.is_zero() or gv.is_zero():
            continue
        total = total + size * (fv * gv.conjugate())
    r = total.as_rational()
    if r is None:
        raise InvariantError("inner product of class functions is not rational")
    return r / ct.order


def element_wise_indicator(ct, values):
    """Independent indicator oracle: (1/|G|) sum of chi(g^2), one term per element."""
    group = ct.group
    n = lcm(*(v.n for v in values))
    lifted = [v.coeffs_at(n) for v in values]
    acc = [0] * len(lifted[0])
    index, class_of = group.index, ct.class_of
    for e in group.elements:
        acc = [x + y for x, y in zip(acc, lifted[class_of[index[group.mul(e, e)]]])]
    r = Cyclotomic(n, acc).as_rational()
    if r is None:
        raise InvariantError("element-wise indicator sum is not rational")
    return r / ct.order


def q8_table_checks(q):
    """Orthonormality of the five Q8 rows over class sizes (1, 1, 2, 2, 2)."""
    sizes = (1, 1, 2, 2, 2)
    for i, (_, f) in enumerate(Q8_ROWS):
        for j, (_, g) in enumerate(Q8_ROWS):
            total = sum(s * x * y for s, x, y in zip(sizes, f, g))
            if total != (8 if i == j else 0):
                return False
    return Q8_ROWS[4][1] == (2, -2, 0, 0, 0)


def run_selftest(p, bound=DEFAULT_PRIME_BOUND):
    """All invariant checks for one prime; returns the per-check results."""
    require_odd_prime(p, bound)
    results = []

    def check(name, ok, detail=""):
        results.append(CheckResult(name, bool(ok), detail))

    # exact arithmetic used by everything below
    zeta_sum = sum((root_of_unity(p, k) for k in range(p)), ZERO)
    phi_p = cyclotomic_polynomial(p)
    z1 = root_of_unity(p, 1)
    check("cyclotomic_basics",
          zeta_sum == 0 and phi_p == tuple([1] * p)
          and z1.conjugate().conjugate() == z1,
          f"sum of p-th roots = {zeta_sum}; Phi_p all-ones")

    group = build_group(p, bound=bound)
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

    sq_ok = all(
        ct.class_of[group.index[group.mul(e, e)]] == ct.square_map[ct.class_of[i]]
        for i, e in enumerate(group.elements))
    check("square_map_total", sq_ok, "square map agrees on 100% of elements")

    roots = table.square_roots_count
    check("square_roots_count", roots == 1 + p * p == count_square_roots_of_identity(ct),
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

    check("q8_table", q8_table_checks(q),
          "5 rows orthonormal over Q8; degree-2 values (2, -2, 0, 0, 0)")

    check("row_count", len(rows) == ct.n_classes,
          f"{len(rows)} rows = {ct.n_classes} classes")
    for name in ("degree_sum", "first_orthogonality", "second_orthogonality",
                 "induced_vanish_off_core"):
        check(name, *verdict[name])

    if p <= FULL_ORACLE_PRIME_LIMIT:
        oracle_labels = list(orbits)
    else:
        oracle_labels = [min(label_orbit(q, default_label(p)))]
    oracle_ok = all(
        induced_by_averaging(l, ct) == table.row(f"ind_{l[0]}_{l[1]}").values
        for l in oracle_labels)
    check("induction_oracle", oracle_ok,
          f"averaging formula matches orbit sums on {len(oracle_labels)} row(s)")

    check("indicator_oracle",
          all(r.indicator == fs_indicator_direct(ct, r.values)
              == element_wise_indicator(ct, r.values) for r in rows),
          "class-formula indicator = element-wise sum on every row")

    negatives = [r.name for r in rows if r.indicator == -1]
    check("indicator_signs",
          negatives == ["psi"] and all(r.indicator == 1 for r in rows if r.name != "psi"),
          "exactly one indicator -1, on the degree-2 row")

    check("fs_sum_rule", *verdict["sum_rule"])

    orders_ok = all(v.n in (1, p) for r in rows for v in r.values)
    inflated_ok = all(
        v.as_rational() is not None and v.as_rational().denominator == 1
        for r in rows if not r.name.startswith("ind_") for v in r.values)
    check("values_in_base_field", orders_ok and inflated_ok,
          "values lie in Q(zeta_p); inflated rows are rational integers")

    chi = table.induced_row_for_label(default_label(p))
    dec = tensor_square_decompose(table, chi)
    weight = sum(m * table.row(nm).degree for nm, m in dec.items())
    check("tensor_square",
          all(m >= 0 for m in dec.values()) and weight == 64
          and dec["triv"] == 1 and dec["psi"] >= 1,
          f"multiplicities >= 0, weight sum {weight} = 64, "
          f"[triv] = {dec['triv']}, [psi] = {dec['psi']}")

    if p <= FULL_ORACLE_PRIME_LIMIT:
        pairs = [(f, g) for i, f in enumerate(rows) for g in rows[i:]]
    else:
        pairs = [(chi, g) for g in rows]
    psi = table.row("psi")
    squared = tuple(v * v for v in chi.values)
    check("orthogonality_oracle",
          all(inner_product(ct, f.values, g.values) == exact_inner_product(ct, f.values, g.values)
              for f, g in pairs)
          and dec["psi"] == exact_inner_product(ct, squared, psi.values),
          f"F_l kernel = exact Cyclotomic sum on {len(pairs)} row pair(s) and [chi^2, psi]")

    return results
