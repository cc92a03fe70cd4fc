import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebuilt
from q8family.errors import InvariantError, UsageError
from q8family.groups import (ClassTable, build_group, conjugacy_classes,
                             conjugated_subgroup, count_square_roots_of_identity,
                             quaternion_subgroup, square_locus)
from q8family.modp import Mat2
from q8family.verify import ALT_CONJUGATOR

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
        with pytest.raises(UsageError, match="not an odd prime"):
            quaternion_subgroup(3.0)

    def test_takes_any_odd_prime(self):
        # the prime bound is the commands' cost policy, not the builders'
        q = quaternion_subgroup(101)
        assert q.p == 101 and len(set(q.elements)) == 8

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

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_identity_first_and_lookup(self, p):
        g = build_group(p)
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


def assert_partition_is(ct, partition):
    group = ct.group
    got = {
        frozenset(e for e in group.elements if ct.class_of[group.index[e]] == k)
        for k in range(ct.n_classes)
    }
    assert got == partition


def closure_classes(group):
    """Independent classing by orbit closure under four generators of G.

    Each orbit is closed under conjugation by the two core basis vectors and
    X, Y of Q until nothing new appears; classes are numbered by minimal
    element index.  A squaring pass of its own gives the square map and
    root counts.  This is the generic algorithm that `conjugacy_classes`
    replaced.
    """
    q = group.quaternion
    gens = ((1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 0, 1),
            (0, 0) + q.x.entries(), (0, 0) + q.y.entries())
    elements, index, order = group.elements, group.index, len(group)
    class_of = [-1] * order
    reps, sizes = [], []
    for i, e in enumerate(elements):
        if class_of[i] >= 0:
            continue
        orbit, frontier = {i}, [e]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    j = index[group.conj(g, h)]
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(elements[j])
            frontier = nxt
        for j in orbit:
            assert class_of[j] < 0
            class_of[j] = len(reps)
        reps.append(i)
        sizes.append(len(orbit))
    square_map, root_counts = [-1] * len(reps), [0] * len(reps)
    for i, e in enumerate(elements):
        target = class_of[index[group.mul(e, e)]]
        assert square_map[class_of[i]] in (-1, target)
        square_map[class_of[i]] = target
        root_counts[target] += 1
    return ClassTable(
        group=group, reps=tuple(reps), sizes=tuple(sizes),
        centralizer_orders=tuple(order // s for s in sizes),
        class_of=tuple(class_of), square_map=tuple(square_map),
        root_counts=tuple(root_counts))


CLASS_TABLE_FIELDS = ("group", "reps", "sizes", "centralizer_orders", "class_of",
                      "square_map", "root_counts")


def test_class_table_fields_are_every_constructor_field():
    assert tuple(inspect.signature(ClassTable).parameters) == CLASS_TABLE_FIELDS


def assert_same_class_table(got, oracle):
    for name in CLASS_TABLE_FIELDS:
        assert getattr(got, name) == getattr(oracle, name), name


def group_on(q, elements):
    """The group built on the subgroup q with its element list replaced."""
    return build_group(q.p, quaternion=rebuilt(q, elements=tuple(elements)))


class TestAgainstClosureOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29])
    def test_every_field_matches(self, p):
        g = build_group(p)
        assert_same_class_table(conjugacy_classes(g), closure_classes(g))

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_every_field_matches_on_the_alt_subgroup(self, p):
        q = conjugated_subgroup(quaternion_subgroup(p), Mat2.make(*ALT_CONJUGATOR, p))
        g = build_group(p, quaternion=q)
        assert_same_class_table(conjugacy_classes(g), closure_classes(g))

    @pytest.mark.slow
    def test_every_field_matches_at_41(self):
        g = build_group(41)
        assert_same_class_table(conjugacy_classes(g), closure_classes(g))


class TestFrobeniusPremisesChecked:
    """A list of matrices that is not a fixed-point-free group is refused."""

    Q5 = quaternion_subgroup(5)

    def test_a_matrix_with_eigenvalue_one_is_refused(self):
        # [[1, 1], [0, 1]] has det 1 and fixes (1, 0)
        g = group_on(self.Q5, self.Q5.elements[:7] + (Mat2.make(1, 1, 0, 1, 5),))
        with pytest.raises(InvariantError, match="fixes a nonzero vector"):
            conjugacy_classes(g)

    def test_elements_not_closed_under_conjugation_are_refused(self):
        # [[1, 1], [-1, 0]] has det 1 and no eigenvalue 1, but trace 1: its
        # conjugates are not among the trace-0 elements of Q
        g = group_on(self.Q5, self.Q5.elements[:7] + (Mat2.make(1, 1, -1, 0, 5),))
        with pytest.raises(InvariantError, match="is not in Q"):
            conjugacy_classes(g)

    def test_a_singular_matrix_is_refused(self):
        g = group_on(self.Q5, self.Q5.elements[:7] + (Mat2.make(0, 0, 0, 0, 5),))
        with pytest.raises(InvariantError, match="det != 1"):
            conjugacy_classes(g)

    def test_a_set_that_is_not_a_group_is_refused(self):
        # {I, X, -X} passes every premise, but its "orbits" on V overlap
        g = group_on(self.Q5, (self.Q5.elements[0], self.Q5.x, self.Q5.x.neg()))
        with pytest.raises(InvariantError, match="failed to partition"):
            conjugacy_classes(g)


class TestConjugacyClasses:
    def test_p3_sizes_against_brute_force(self, group3, classes3):
        oracle = brute_force_partition(group3)
        assert sorted(len(c) for c in oracle) == [1, 8, 9, 18, 18, 18]
        assert_partition_is(classes3, oracle)

    @pytest.mark.parametrize("p", [5, 7])
    def test_partition_against_brute_force(self, p):
        g = build_group(p)
        assert_partition_is(conjugacy_classes(g), brute_force_partition(g))

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
