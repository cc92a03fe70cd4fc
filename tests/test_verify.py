import concurrent.futures
from fractions import Fraction

import pytest

from q8family import characters, selftest, verify
from q8family.characters import (TABLE_CHECKS, character_table, fs_indicator_direct,
                                 inner_product, label_orbit, label_orbits,
                                 quaternionic_row_unique, restriction_to_core_inner,
                                 stabilizer_in_q, tensor_square_decompose)
from q8family.cyclotomic import Cyclotomic
from q8family.errors import UsageError
from q8family.modular import ModularImage
from q8family.verify import (Report, run_table_checks, scan_one_prime, scan_primes,
                             verify_label, verify_prime)


class TestVerifyPrime:
    def test_p3_default_label(self):
        r = verify_prime(3)
        assert r.overall_pass
        assert r.group_order == 72
        assert r.class_count == 6
        assert r.label == (0, 1)
        assert r.psi_multiplicity == 2
        assert r.square_locus_size == 18
        assert r.induced_norm == 1
        assert r.indicator_induced == r.indicator_induced_direct == 1
        assert r.indicator_psi == r.indicator_psi_direct == -1
        assert r.degree_multiset == (1, 1, 1, 1, 2, 8)
        assert sorted(r.indicator_list) == [-1, 1, 1, 1, 1, 1]
        assert all(r.claims.values()) and all(r.checks.values())
        assert r.stabilizer_size == 1

    def test_p3_breakdown_mirrors_counting(self):
        r = verify_prime(3)
        bd = r.indicator_breakdown
        assert bd["core_order"] == 9
        assert bd["degree"] == 8
        assert bd["restriction_inner"] == Fraction(0)
        assert bd["numerator"] == 72 == bd["group_order"]
        assert bd["consistent"]

    def test_label_reduced_mod_p(self):
        r = verify_prime(3, label=(4, 3))  # reduces to (1, 0)
        assert r.label == (1, 0)
        assert r.overall_pass

    def test_p5_every_orbit_rep_passes(self):
        table = character_table(5)
        facts = run_table_checks(table)
        reps = label_orbits(table.class_table.group.quaternion)
        assert len(reps) == 3
        for rep in reps:
            report = verify_label(table, rep, facts)
            assert report.overall_pass
            assert report.psi_multiplicity >= 1

    def test_even_prime_rejected(self):
        with pytest.raises(UsageError, match="not an odd prime"):
            verify_prime(2)

    def test_composite_rejected(self):
        with pytest.raises(UsageError, match="not an odd prime"):
            verify_prime(4)

    def test_trivial_label_rejected(self):
        with pytest.raises(UsageError, match="nontrivial"):
            verify_prime(3, label=(0, 0))
        with pytest.raises(UsageError, match="nontrivial"):
            verify_prime(3, label=(3, 3))

    def test_bound_respected(self):
        with pytest.raises(UsageError, match="bound"):
            verify_prime(101)
        with pytest.raises(UsageError, match="bound"):
            verify_prime(7, bound=5)
        assert verify_prime(7, bound=7).overall_pass

    @pytest.mark.parametrize("p", [3, 5])
    def test_alt_subgroup_agrees(self, p):
        r = verify_prime(p, alt_subgroup=True)
        assert r.overall_pass
        alt = r.alt_subgroup
        assert alt["pass"]
        assert alt["degree_multiset_match"]
        assert alt["indicator_multiset_match"]
        assert alt["class_count_match"]

    def test_p23_end_to_end(self):
        r = verify_prime(23)
        assert r.class_count == 71
        assert r.overall_pass
        assert r.psi_multiplicity >= 1

    def test_timings_recorded(self):
        r = verify_prime(3)
        for key in ("group_seconds", "classes_seconds", "table_seconds",
                    "verification_seconds", "total_seconds"):
            assert r.timings[key] >= 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_norm_is_the_trivial_slot_of_the_tensor_square(p):
    # rows are real, so [chi, chi] = [chi^2, 1]; inner_product cross-checks the identity
    table = character_table(p)
    facts = run_table_checks(table)
    for label in label_orbits(table.class_table.group.quaternion):
        report = verify_label(table, label, facts)
        chi = table.induced_row_for_label(label)
        assert (report.induced_norm == inner_product(table.class_table, chi.values, chi.values)
                == report.decomposition["triv"] == 1)


def test_a_label_costs_two_packed_accumulations(monkeypatch):
    # the tensor square and the restriction to V; the norm is read from the square
    table = character_table(7)
    facts = run_table_checks(table)
    calls = []
    exact_sums = ModularImage.exact_sums

    def counted(self, f, rows):
        calls.append(len(rows))
        return exact_sums(self, f, rows)

    monkeypatch.setattr(ModularImage, "exact_sums", counted)
    assert verify_label(table, (0, 1), facts).overall_pass
    assert calls == [len(table.rows), 1]


def _counting(monkeypatch, name):
    """Replace verify.<name> by a wrapper; returns the list of its calls' first arguments."""
    calls = []
    fn = getattr(verify, name)

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("p, labels", [(5, 3), (13, 21)])
def test_table_facts_are_computed_once_per_table(monkeypatch, p, labels):
    unique_row = _counting(monkeypatch, "quaternionic_row_unique")
    direct = _counting(monkeypatch, "fs_indicator_direct")
    rec = scan_one_prime(p)
    assert rec["pass"] and rec["labels_checked"] == labels
    assert len(unique_row) == 1
    assert len(direct) == labels + 1  # chi's for every label, psi's once


def _report_field_by_field(table, label):
    """The report of one label with every field computed for that label alone."""
    ct, rows = table.class_table, table.rows
    q = ct.group.quaternion
    chi, psi = table.induced_row_for_label(label), rows[table.psi_index]
    decomposition = tensor_square_decompose(table, chi)
    restriction = restriction_to_core_inner(ct, chi.values)
    numerator = ct.p ** 2 * (chi.degree + restriction)
    breakdown = {"core_order": ct.p ** 2, "degree": chi.degree,
                 "restriction_inner": restriction, "numerator": numerator,
                 "group_order": ct.order, "consistent": numerator == ct.order * chi.indicator}
    ind_chi_direct = fs_indicator_direct(ct, chi.values)
    checks = {name: fn(table)[0] for name, fn in TABLE_CHECKS}
    checks["indicator_breakdown"] = breakdown["consistent"]
    checks["unique_quaternionic_row"] = quaternionic_row_unique(
        [r.degree for r in rows], [r.indicator for r in rows])
    return Report(
        prime=ct.p, label=label, orbit_rep=min(label_orbit(q, label)),
        group_order=ct.order, class_count=ct.n_classes,
        degree_multiset=tuple(sorted(r.degree for r in rows)),
        indicator_list=tuple(r.indicator for r in rows),
        row_names=tuple(r.name for r in rows),
        stabilizer_size=len(stabilizer_in_q(q, label)),
        induced_norm=Fraction(decomposition["triv"]),
        indicator_induced=chi.indicator, indicator_induced_direct=ind_chi_direct,
        indicator_psi=psi.indicator, indicator_psi_direct=fs_indicator_direct(ct, psi.values),
        psi_multiplicity=decomposition[psi.name], decomposition=decomposition,
        indicator_breakdown=breakdown,
        claims={"induced_irreducible": len(stabilizer_in_q(q, label)) == 1
                and decomposition["triv"] == 1,
                "indicator_one": chi.indicator == ind_chi_direct == 1,
                "square_contains_psi": decomposition[psi.name] >= 1},
        checks=checks,
        square_locus_size=sum(ct.sizes[k] for k in table.square_locus))


def test_shared_table_facts_give_the_reports_built_label_by_label(table7):
    facts = run_table_checks(table7)
    for label in label_orbits(table7.class_table.group.quaternion):
        report = verify_label(table7, label, facts)
        expected = _report_field_by_field(table7, label)
        expected.timings = report.timings
        assert report == expected
        assert list(report.checks) == list(expected.checks)


def test_verify_builds_no_cyclotomic(built_cyclotomics):
    assert verify_prime(17).overall_pass
    assert built_cyclotomics == []
    Cyclotomic(3, [0, 1])  # the counter counts
    assert built_cyclotomics == [3]


def test_only_selftest_runs_the_column_sums(monkeypatch):
    calls = []
    column_sums = characters.check_second_orthogonality

    def counted(ct, values_list):
        calls.append(ct.p)
        column_sums(ct, values_list)

    # the only modules that name it (tests/test_layering.py)
    for module in (characters, selftest):
        monkeypatch.setattr(module, "check_second_orthogonality", counted)
    assert verify_prime(7).overall_pass
    assert scan_one_prime(7)["pass"]
    assert calls == []
    assert all(r.ok for r in selftest.run_selftest(7))
    assert calls == [7]


class TestOverallPass:
    def test_flipping_a_claim_fails_the_report(self):
        r = verify_prime(3)
        r.claims["indicator_one"] = False
        assert not r.overall_pass

    def test_flipping_a_check_fails_the_report(self):
        r = verify_prime(3)
        r.checks["sum_rule"] = False
        assert not r.overall_pass


class TestScan:
    def test_scan_matches_single_verify(self):
        recs = scan_primes(3, 3)
        assert len(recs) == 1
        rec = recs[0]
        assert rec["prime"] == 3
        assert rec["labels_checked"] == 1
        assert rec["pass"]
        assert rec["psi_multiplicities"] == [verify_prime(3).psi_multiplicity]

    def test_scan_range(self):
        recs = scan_primes(3, 7)
        assert [r["prime"] for r in recs] == [3, 5, 7]
        assert [r["labels_checked"] for r in recs] == [1, 3, 6]
        assert all(r["pass"] for r in recs)
        assert all(not r["failures"] for r in recs)

    def test_empty_range_rejected(self):
        with pytest.raises(UsageError, match="no odd primes"):
            scan_primes(8, 9)

    def test_bound_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a prime was verified before the bound check")

        monkeypatch.setattr(verify, "scan_one_prime", no_work)
        with pytest.raises(UsageError, match="p=11 exceeds the prime bound 7"):
            scan_primes(3, 13, bound=7)

    def test_walk_stops_at_the_first_prime_past_the_bound(self, monkeypatch):
        tested = []
        is_odd_prime = verify.is_odd_prime

        def counted(p):
            tested.append(p)
            if len(tested) > 1000:
                raise AssertionError("the range was walked past the first prime beyond the bound")
            return is_odd_prime(p)

        monkeypatch.setattr(verify, "is_odd_prime", counted)
        with pytest.raises(UsageError, match="p=101 exceeds the prime bound 97"):
            scan_primes(3, 10 ** 9)
        assert tested == list(range(3, 102))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected_before_the_range(self, monkeypatch, jobs):
        def no_work(*args):
            raise AssertionError("a prime was verified with jobs < 1")

        monkeypatch.setattr(verify, "scan_one_prime", no_work)
        for lo, hi in ((3, 7), (7, 3), (8, 9)):
            with pytest.raises(UsageError, match=r"^--jobs must be >= 1$"):
                scan_primes(lo, hi, jobs=jobs)

    def test_inverted_range_rejected(self):
        with pytest.raises(UsageError, match="bad prime range"):
            scan_primes(7, 3)

    @pytest.mark.parametrize("lo, hi, jobs, workers", [
        (3, 7, 4, [3]),      # three primes: three workers, not four
        (3, 7, 2, [2]),
        (3, 13, 100, [5]),
        (3, 3, 4, []),       # one prime runs in this process
        (3, 7, 1, []),
    ])
    def test_workers_capped_at_the_prime_count(self, monkeypatch, lo, hi, jobs, workers):
        started = []

        class RecordingPool:
            """Records max_workers and maps in this process; forks nothing."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(verify, "scan_one_prime", lambda p, alt: p)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        primes = [p for p in (3, 5, 7, 11, 13) if lo <= p <= hi]
        assert scan_primes(lo, hi, jobs=jobs) == primes
        assert started == workers

    @pytest.mark.slow
    def test_scan_p37_every_label(self):
        [rec] = scan_primes(37, 37)
        assert rec["pass"] and not rec["failures"]
        assert rec["labels_checked"] == (37 ** 2 - 1) // 8 == 171
        assert rec["psi_multiplicities"] == [2] * 171

    def test_one_prime_summary_shape(self):
        rec = scan_one_prime(5)
        assert rec["group_order"] == 200
        assert rec["psi_multiplicities"] == [2, 2, 2]
        assert rec["seconds"] >= 0
