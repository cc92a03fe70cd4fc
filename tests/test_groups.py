import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q8family.errors import UsageError
from q8family.groups import (build_group, conjugacy_classes,
                             conjugated_subgroup, count_square_roots_of_identity,
                             quaternion_subgroup, square_locus)
from q8family.modp import Mat2

IDENT = (1, 0, 0, 1)


def first_sum_of_squares_pair(p):
    """Independent lexicographic scan oracle for the Y-matrix parameters."""
    for a in range(p):
        for b in range(p):
            if (a * a + b * b) % p == p - 1:
                return (a, b)
    raise AssertionError("no pair found")


class TestQuaternionSubgroup:
    def test_p3_exact_matrices(self):
        q = quaternion_subgroup(3)
        assert q.x.entries() == (0, 2, 1, 0)
        assert q.y.entries() == (1, 1, 1, 2)

    def test_p5_smallest_pair(self):
        assert first_sum_of_squares_pair(5) == (0, 2)
        q = quaternion_subgroup(5)
        assert (q.y.a, q.y.b) == (0, 2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_scan_oracle_and_relations(self, p):
        q = quaternion_subgroup(p)
        a, b = first_sum_of_squares_pair(p)
        assert q.y.entries() == (a, b, b, (-a) % p)
        ident = Mat2.identity(p)
        # the defining presentation, recomputed here
        assert q.x * q.x == q.z == q.y * q.y
        assert q.x * q.x * q.x * q.x == ident
        assert q.y * q.x * q.y.inv() == q.x.inv()
        assert len(set(q.elements)) == 8
        assert all(m.det() == 1 for m in q.elements)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_unique_involution_is_minus_identity(self, p):
        q = quaternion_subgroup(p)
        assert q.z == Mat2.identity(p).neg()
        assert q.z * q.z == Mat2.identity(p)
        assert q.z != Mat2.identity(p)
        invs = [m for m in q.elements if m * m == Mat2.identity(p) and m != Mat2.identity(p)]
        assert invs == [q.z]

    def test_rejects_bad_primes(self):
        with pytest.raises(UsageError):
            quaternion_subgroup(2)
        with pytest.raises(UsageError):
            quaternion_subgroup(9)
        with pytest.raises(UsageError):
            quaternion_subgroup(101, bound=97)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_conjugated_subgroup_satisfies_relations(self, p):
        q = quaternion_subgroup(p)
        alt = conjugated_subgroup(q, Mat2.make(1, 1, 0, 1, p))
        assert len(set(alt.elements)) == 8
        assert alt.z == q.z  # -I is central, hence fixed by conjugation
        if p == 5:
            # for p = 5 the conjugate really is a different subgroup
            assert set(alt.elements) != set(q.elements)


class TestSemidirectProduct:
    def test_identity_law(self, group3):
        g = group3
        e = (1, 2) + g.quaternion.x.entries()
        assert g.mul(g.identity, e) == e
        assert g.mul(e, g.identity) == e

    def test_conjugation_by_z_inverts_core(self, group3):
        g = group3
        z = (0, 0) + g.quaternion.z.entries()
        assert g.conj(z, (1, 0) + IDENT) == (2, 0) + IDENT
        for v0 in range(3):
            for v1 in range(3):
                assert g.conj(z, (v0, v1) + IDENT) == ((-v0) % 3, (-v1) % 3) + IDENT

    def test_vz_squares_to_identity(self, group3):
        g = group3
        z = g.quaternion.z.entries()
        vz = (1, 0) + z
        assert g.mul(vz, vz) == g.identity

    def test_inverses(self, group3):
        g = group3
        assert g.inv(g.identity) == g.identity
        assert g.inv((1, 0) + IDENT) == (2, 0) + IDENT
        z = g.quaternion.z.entries()
        for v0 in range(3):
            for v1 in range(3):
                assert g.inv((v0, v1) + z) == (v0, v1) + z

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_axioms_on_random_triples(self, data):
        p = data.draw(st.sampled_from([3, 5]))
        g = build_group(p)
        n = len(g.elements)
        a = g.elements[data.draw(st.integers(0, n - 1))]
        b = g.elements[data.draw(st.integers(0, n - 1))]
        c = g.elements[data.draw(st.integers(0, n - 1))]
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.inv(a), a) == g.identity


class TestEnumeration:
    def test_order_72(self, group3):
        assert len(group3) == 72

    def test_order_200(self):
        assert len(build_group(5)) == 200

    def test_identity_first_and_lookup(self, group3):
        g = group3
        assert g.elements[0] == g.identity
        assert sorted(g.elements[1:]) == list(g.elements[1:])
        for i, e in enumerate(g.elements):
            assert g.index[e] == i


def brute_force_partition(group):
    """Independent classing: conjugate every element by every element."""
    classes = set()
    for e in group.elements:
        classes.add(frozenset(group.conj(x, e) for x in group.elements))
    return classes


class TestConjugacyClasses:
    def test_p3_sizes_against_brute_force(self, group3, classes3):
        oracle = brute_force_partition(group3)
        assert sorted(len(c) for c in oracle) == [1, 8, 9, 18, 18, 18]
        got = {
            frozenset(e for e in group3.elements
                      if classes3.class_of[group3.index[e]] == k)
            for k in range(classes3.n_classes)
        }
        assert got == oracle

    def test_sizes_sum_to_order(self, classes3):
        assert sum(classes3.sizes) == 72

    def test_nonzero_core_is_one_class_p3(self, group3, classes3):
        k = classes3.class_of_element((0, 1) + IDENT)
        members = [e for e in group3.elements
                   if classes3.class_of[group3.index[e]] == k]
        assert sorted(members) == sorted(
            (v0, v1) + IDENT for v0 in range(3) for v1 in range(3)
            if (v0, v1) != (0, 0))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_partition_invariants(self, p):
        ct = conjugacy_classes(build_group(p))
        order = ct.order
        assert sum(ct.sizes) == order
        for s, c in zip(ct.sizes, ct.centralizer_orders):
            assert order % s == 0
            assert s * c == order
        assert ct.reps[0] == 0 and ct.sizes[0] == 1
        assert ct.n_classes == 5 + (p * p - 1) // 8

    @pytest.mark.parametrize("p", [11, 13])
    def test_class_count_formula_larger(self, p):
        ct = conjugacy_classes(build_group(p))
        assert ct.n_classes == 5 + (p * p - 1) // 8

    def test_reps_are_minimal_members(self, group3, classes3):
        for k in range(classes3.n_classes):
            members = [i for i in range(72) if classes3.class_of[i] == k]
            assert classes3.reps[k] == min(members)


class TestSquareMap:
    def test_vz_class_squares_to_identity_class(self, group3, classes3):
        z = group3.quaternion.z.entries()
        k = classes3.class_of_element((1, 2) + z)
        assert classes3.square_map[k] == 0

    def test_core_class_squares_into_itself(self, group3, classes3):
        k = classes3.class_of_element((0, 1) + IDENT)
        assert classes3.square_map[k] == k

    def test_x_class_squares_into_z_fiber(self, group3, classes3):
        x = group3.quaternion.x.entries()
        z = group3.quaternion.z.entries()
        kx = classes3.class_of_element((0, 0) + x)
        assert classes3.square_map[kx] == classes3.class_of_element((0, 0) + z)

    @pytest.mark.parametrize("p", [3, 5])
    def test_representative_independent_everywhere(self, p):
        g = build_group(p)
        ct = conjugacy_classes(g)
        for i, e in enumerate(g.elements):
            sq = g.mul(e, e)
            assert ct.class_of[g.index[sq]] == ct.square_map[ct.class_of[i]]


class TestSquareCounts:
    def test_p3(self, classes3):
        assert count_square_roots_of_identity(classes3) == 10

    def test_p5(self):
        ct = conjugacy_classes(build_group(5))
        assert count_square_roots_of_identity(ct) == 26

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_prediction(self, p):
        ct = conjugacy_classes(build_group(p))
        n = count_square_roots_of_identity(ct)
        assert n == 1 + p * p
        assert n >= 2

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_square_locus_is_core_and_z_coset(self, p):
        g = build_group(p)
        z = g.quaternion.z.entries()
        expected = {e for e in g.elements if e[2:] in (IDENT, z)}
        locus = square_locus(g)
        assert locus == expected
        assert len(locus) == 2 * p * p


def test_build_group_rejects_mismatched_subgroup():
    q5 = quaternion_subgroup(5)
    with pytest.raises(UsageError):
        build_group(3, quaternion=q5)
