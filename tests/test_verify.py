from fractions import Fraction

import pytest

from q8family import verify
from q8family.characters import label_orbits
from q8family.errors import UsageError
from q8family.verify import (build_table_timed, run_table_checks, scan_one_prime,
                             scan_primes, verify_label, verify_prime)


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
        table, _ = build_table_timed(5)
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

    def test_inverted_range_rejected(self):
        with pytest.raises(UsageError, match="bad prime range"):
            scan_primes(7, 3)

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
