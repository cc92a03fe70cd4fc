"""End-to-end verification for one prime and one starting label.

The certified statement: for every odd prime p and every nontrivial
character of V = C_p x C_p, the induced character of G = V : Q8 is
irreducible, has Frobenius-Schur indicator +1, and its square contains the
quaternionic degree-2 character.  A Report records the exact quantities
behind each of the three claims plus the structural health checks of the
table they were read from.  Those checks are the entries of
`characters.TABLE_CHECKS`; they and every report field no label changes
are computed once per table (`run_table_checks`); `verify_label` adds
only the label's own sums.  Both
orthogonality verdicts come from the certificate assembly recorded: the
first is that certificate, and the second is derived from it and the
class partition, so no column sums run here; `selftest` runs them as an
oracle.  The element-wise indicators are root-count sums; the literal one
is `selftest`'s.  Rows are real (`modular.py`, step 1), so [chi, chi] =
(1/|G|) sum_K |K| chi(K)^2 = [chi^2, 1], the tensor square's trivial slot,
checked integral.  The prime bound, a cost policy, is checked once, where
`verify_prime` and `scan_primes` start; the builders take any odd prime.
"""

import time
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .characters import (TABLE_CHECKS, assemble_character_table, character_table,
                         default_label, fs_indicator_direct, label_orbit, label_orbits,
                         nontrivial_label, quaternionic_row_unique,
                         restriction_to_core_inner, stabilizer_in_q,
                         tensor_square_decompose)
from .errors import InvariantError, UsageError
from .groups import (build_group, conjugacy_classes, conjugated_subgroup,
                     quaternion_subgroup)
from .modp import DEFAULT_PRIME_BOUND, Mat2, is_odd_prime, require_odd_prime


class Report:
    """Machine-readable verdict for one (prime, label) run.

    Its fields are `__slots__`, in the order its document lists them
    (`serialize.report_document`).  It is built from keywords, every field
    but `timings` (default {}) and `alt_subgroup` (default None) required,
    and two reports are equal when all their fields are.
    """

    __slots__ = ("prime", "label", "orbit_rep", "group_order", "class_count",
                 "degree_multiset", "indicator_list", "row_names", "stabilizer_size",
                 "induced_norm", "indicator_induced", "indicator_induced_direct",
                 "indicator_psi", "indicator_psi_direct", "psi_multiplicity",
                 "decomposition", "indicator_breakdown", "claims", "checks",
                 "square_locus_size", "timings", "alt_subgroup")

    def __init__(self, **fields):
        fields = {"timings": {}, "alt_subgroup": None, **fields}
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"Report fields {sorted(fields.keys() ^ set(self.__slots__))} "
                            "missing or unknown")
        for name, value in fields.items():
            setattr(self, name, value)

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None

    @property
    def overall_pass(self):
        ok = all(self.claims.values()) and all(self.checks.values())
        if self.alt_subgroup is not None:
            ok = ok and self.alt_subgroup["pass"]
        return ok


class TableFacts(NamedTuple):
    """The label-independent half of a report, computed once per table."""

    checks: dict  # registry verdicts, in registry order
    fields: dict  # every Report field that no label changes
    unique_quaternionic_row: bool


def run_table_checks(table):
    """Every registry check on the table, and the report fields no label changes."""
    checks = {name: fn(table)[0] for name, fn in TABLE_CHECKS}
    ct, rows = table.class_table, table.rows
    degrees, indicators = [r.degree for r in rows], tuple(r.indicator for r in rows)
    psi = table.rows[table.psi_index]
    fields = dict(prime=ct.p, group_order=ct.order, class_count=ct.n_classes,
                  degree_multiset=tuple(sorted(degrees)), indicator_list=indicators,
                  row_names=tuple(r.name for r in rows), indicator_psi=psi.indicator,
                  indicator_psi_direct=fs_indicator_direct(ct, psi.values),
                  square_locus_size=sum(ct.sizes[k] for k in table.square_locus))
    return TableFacts(checks, fields, quaternionic_row_unique(degrees, indicators))


def verify_label(table, label, facts):
    """Check the three claims for one label against an already-built table.

    facts is `run_table_checks(table)`, computed once per table by the caller.
    """
    ct = table.class_table
    p = ct.p
    label = nontrivial_label(label, p)
    t0 = time.perf_counter()

    q = ct.group.quaternion
    stab = stabilizer_in_q(q, label)
    orbit_rep = min(label_orbit(q, label))
    chi = table.induced_row_for_label(label)
    psi = table.rows[table.psi_index]

    ind_chi = chi.indicator
    ind_chi_direct = fs_indicator_direct(ct, chi.values)
    decomposition = tensor_square_decompose(table, chi)
    norm = Fraction(decomposition["triv"])
    psi_mult = decomposition[psi.name]

    core_order = p * p
    restriction = restriction_to_core_inner(ct, chi.values)
    numerator = core_order * chi.degree + core_order * restriction
    breakdown = {
        "core_order": core_order,
        "degree": chi.degree,
        "restriction_inner": restriction,
        "numerator": numerator,
        "group_order": ct.order,
        "consistent": numerator == ct.order * ind_chi,
    }

    claims = {
        "induced_irreducible": len(stab) == 1 and norm == 1,
        "indicator_one": ind_chi == 1 and ind_chi_direct == 1,
        "square_contains_psi": psi_mult >= 1,
    }
    checks = {**facts.checks, "indicator_breakdown": breakdown["consistent"],
              "unique_quaternionic_row": facts.unique_quaternionic_row}

    elapsed = time.perf_counter() - t0
    return Report(
        **facts.fields,
        label=label,
        orbit_rep=orbit_rep,
        stabilizer_size=len(stab),
        induced_norm=norm,
        indicator_induced=ind_chi,
        indicator_induced_direct=ind_chi_direct,
        psi_multiplicity=psi_mult,
        decomposition=decomposition,
        indicator_breakdown=breakdown,
        claims=claims,
        checks=checks,
        timings={"verification_seconds": elapsed},
    )


ALT_CONJUGATOR = (1, 1, 0, 1)  # unipotent, det 1; moves Q off itself for p > 3


def _alt_subgroup_summary(p, label, reference):
    """Verify against a conjugate quaternion subgroup and compare verdicts.

    All quaternion subgroups of SL2(p) are conjugate, so every certified
    invariant must agree with the reference run; disagreement is an internal
    error, not a verification failure.
    """
    t = Mat2.make(*ALT_CONJUGATOR, p)
    alt_q = conjugated_subgroup(quaternion_subgroup(p), t)
    table = character_table(p, alt_q)
    rep = verify_label(table, label, run_table_checks(table))
    summary = {
        "conjugator": list(ALT_CONJUGATOR),
        "pass": rep.overall_pass,
        "psi_multiplicity": rep.psi_multiplicity,
        "class_count_match": rep.class_count == reference.class_count,
        "degree_multiset_match": rep.degree_multiset == reference.degree_multiset,
        "indicator_multiset_match": (sorted(rep.indicator_list)
                                     == sorted(reference.indicator_list)),
    }
    mism = [k for k, v in summary.items() if k.endswith("_match") and not v]
    if mism:
        raise InvariantError(
            f"conjugate quaternion subgroup changed certified invariants: {mism}")
    return summary


def verify_prime(p, label=None, bound=DEFAULT_PRIME_BOUND, alt_subgroup=False):
    """Full pipeline for one odd prime p <= bound: build, check, and certify the claims."""
    require_odd_prime(p, bound)
    label = nontrivial_label(default_label(p) if label is None else label, p)
    total0 = time.perf_counter()
    group = build_group(p)
    t1 = time.perf_counter()
    ct = conjugacy_classes(group)
    t2 = time.perf_counter()
    table = assemble_character_table(ct)
    t3 = time.perf_counter()
    report = verify_label(table, label, run_table_checks(table))
    report.timings.update(group_seconds=t1 - total0, classes_seconds=t2 - t1,
                          table_seconds=t3 - t2)
    if alt_subgroup:
        report.alt_subgroup = _alt_subgroup_summary(p, label, report)
    report.timings["total_seconds"] = time.perf_counter() - total0
    return report


def scan_primes(lo, hi, bound=DEFAULT_PRIME_BOUND, alt_subgroup=False, jobs=1):
    """Verify every orbit-representative label for every odd prime in [lo, hi].

    Every prime is checked against the bound before any work starts, as
    the range is walked, so the walk stops at the first prime past it.  A
    pool forks all its workers at once, so the primes run in this process
    or in min(jobs, number of primes) workers.  Returns a list of per-prime
    summary dicts in prime order, each deterministic apart from "seconds".
    """
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if lo > hi or lo < 1:
        raise UsageError(f"bad prime range {lo}..{hi}")
    primes = [require_odd_prime(p, bound) for p in range(lo, hi + 1) if is_odd_prime(p)]
    if not primes:
        raise UsageError(f"no odd primes in range {lo}..{hi}")
    workers = min(jobs, len(primes))
    if workers > 1:
        # Imported here: it loads multiprocessing, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(scan_one_prime, primes, repeat(alt_subgroup)))
    return [scan_one_prime(p, alt_subgroup) for p in primes]


def scan_one_prime(p, alt_subgroup=False):
    """Verify all orbit representatives for one prime; summary dict."""
    t0 = time.perf_counter()
    table = character_table(p)
    facts = run_table_checks(table)
    reps = label_orbits(table.class_table.group.quaternion)
    failures = []
    mults = []
    for rep_label in reps:
        report = verify_label(table, rep_label, facts)
        if rep_label == default_label(p):
            default_report = report
        mults.append(report.psi_multiplicity)
        if not report.overall_pass:
            failures.append({"label": list(rep_label),
                             "claims": report.claims, "checks": report.checks})
    summary = {
        "prime": p,
        "group_order": table.order,
        "labels_checked": len(reps),
        "psi_multiplicities": mults,
        "pass": not failures,
        "failures": failures,
        "seconds": time.perf_counter() - t0,
    }
    if alt_subgroup:
        alt = _alt_subgroup_summary(p, default_label(p), default_report)
        summary["alt_subgroup_pass"] = alt["pass"]
        summary["pass"] = summary["pass"] and alt["pass"]
    return summary
