from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebuilt
from q8family.characters import (Q8_ROWS, character_table, default_label,
                                 fs_indicator, fs_indicator_direct,
                                 induced_values, inflated_values, inner_product,
                                 label_action, label_orbit, label_orbits,
                                 q8_character_table, restriction_to_core_inner,
                                 stabilizer_in_q, tensor_square_decompose)
from q8family.cyclotomic import Cyclotomic, RootSum, root_of_unity
from q8family.errors import InvariantError, UsageError
from q8family.groups import (count_square_roots_of_identity, quaternion_subgroup,
                             square_locus)
from q8family.selftest import element_wise_indicator, induced_by_averaging
from q8family.verify import verify_prime

IDENT = (1, 0, 0, 1)


def exact(values):
    """A row's RootSum values as Cyclotomic, for arithmetic and the selftest oracles."""
    return tuple(v.to_cyclotomic() for v in values)


def assert_rows_are_orbit_sums(table):
    """Every row against values rebuilt in Cyclotomic arithmetic, both ways round.

    Inflated rows are the Q8 values at the class's image in Q; the row of
    the label orbit O is sum over (a, b) in O of zeta_p^(a v0 + b v1) at
    v in V, and 0 off V.
    """
    ct = table.class_table
    p, q = ct.p, ct.group.quaternion
    rows = {name: vals for name, vals in Q8_ROWS}
    for rep in label_orbits(q):
        rows[f"ind_{rep[0]}_{rep[1]}"] = label_orbit(q, rep)
    assert [r.name for r in table.rows] == list(rows)
    for r in table.rows:
        spec = rows[r.name]
        for k, value in enumerate(r.values):
            e = ct.rep_element(k)
            if not r.name.startswith("ind_"):
                want = Cyclotomic(p, [spec[q.class_of[e[2:]]]])
            elif e[2:] != IDENT:
                want = Cyclotomic(p, [])
            else:
                want = sum((root_of_unity(p, a * e[0] + b * e[1]) for a, b in spec),
                           Cyclotomic(p, []))
            assert value.to_cyclotomic() == want and value == want and want == value, (r.name, k)


class TestQ8Table:
    def test_trivial_row(self):
        assert q8_character_table()[0] == ("triv", (1, 1, 1, 1, 1))

    def test_psi_values_from_matrix_model(self):
        # trace oracle: the degree-2 representation by 2x2 matrices over the
        # Gaussian integers, a + b i held as the int pair (a, b)
        zero, one, i, minus_i = (0, 0), (1, 0), (0, 1), (0, -1)
        X = ((i, zero), (zero, minus_i))
        Y = ((zero, (-1, 0)), (one, zero))

        def add(x, y):
            return (x[0] + y[0], x[1] + y[1])

        def times(x, y):
            return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        def mul(A, B):
            return tuple(
                tuple(add(times(A[r][0], B[0][c]), times(A[r][1], B[1][c]))
                      for c in range(2))
                for r in range(2))

        def trace(A):
            return add(A[0][0], A[1][1])

        Z = mul(X, X)
        assert Z == mul(Y, Y)
        XY = mul(X, Y)
        # class reps 1, z, X, Y, XY in the table's class order
        traces = [trace(M) for M in
                  (((one, zero), (zero, one)), Z, X, Y, XY)]
        assert traces == [(t, 0) for t in Q8_ROWS[4][1]]
        assert list(Q8_ROWS[4][1]) == [2, -2, 0, 0, 0]

    def test_rows_orthonormal_over_q8(self):
        sizes = (1, 1, 2, 2, 2)
        rows = [vals for _, vals in q8_character_table()]
        for i, f in enumerate(rows):
            for j, g in enumerate(rows):
                total = sum(s * x * y for s, x, y in zip(sizes, f, g))
                assert total == (8 if i == j else 0)

    def test_psi_indicator_within_q8(self):
        # literal FS sum inside Q8: squares are I (twice) and z (six times)
        psi = dict(q8_character_table())["psi"]
        total = 2 * psi[0] + 6 * psi[1]
        assert Fraction(total, 8) == -1


class TestLabelAction:
    def test_identity_fixes(self):
        q = quaternion_subgroup(5)
        for l in [(0, 1), (2, 3), (4, 4)]:
            assert label_action(q.elements[0], l) == l

    def test_z_negates_labels(self):
        q = quaternion_subgroup(3)
        assert label_action(q.z, (1, 0)) == (2, 0)
        assert label_action(q.z, (1, 2)) == (2, 1)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_functoriality(self, data):
        p = data.draw(st.sampled_from([3, 5]))
        q = quaternion_subgroup(p)
        m = data.draw(st.sampled_from(q.elements))
        n = data.draw(st.sampled_from(q.elements))
        label = (data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)))
        assert label_action(m * n, label) == label_action(m, label_action(n, label))


class TestStabilizersAndOrbits:
    def test_trivial_label_fixed_by_all(self):
        q = quaternion_subgroup(3)
        assert len(stabilizer_in_q(q, (0, 0))) == 8

    def test_p3_label_has_trivial_stabilizer(self):
        q = quaternion_subgroup(3)
        assert stabilizer_in_q(q, (1, 0)) == (q.elements[0],)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_all_nontrivial_stabilizers_trivial(self, p):
        q = quaternion_subgroup(p)
        for a in range(p):
            for b in range(p):
                if (a, b) != (0, 0):
                    assert len(stabilizer_in_q(q, (a, b))) == 1

    @pytest.mark.parametrize("p,count", [(3, 1), (5, 3), (7, 6)])
    def test_orbit_counts(self, p, count):
        q = quaternion_subgroup(p)
        reps = label_orbits(q)
        assert len(reps) == count
        for rep in reps:
            orbit = label_orbit(q, rep)
            assert len(orbit) == 8
            assert rep == min(orbit)


class TestInduction:
    def test_p3_values(self, classes3):
        vals = induced_values((1, 0), classes3)
        by_class = {}
        for k in range(classes3.n_classes):
            by_class[classes3.rep_element(k)] = vals[k]
        assert by_class[(0, 0) + IDENT] == 8
        assert by_class[(0, 1) + IDENT] == -1
        off_core = [v for e, v in by_class.items() if e[2:] != IDENT]
        assert len(off_core) == 4 and all(v == 0 for v in off_core)

    def test_degree_is_index_of_core(self, classes3):
        vals = induced_values((0, 1), classes3)
        assert vals[0] == 8

    def test_trivial_label_rejected(self, classes3):
        with pytest.raises(UsageError):
            induced_values((0, 0), classes3)
        with pytest.raises(UsageError):
            induced_values((3, 6), classes3)  # trivial after reduction mod 3

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_rows_equal_cyclotomic_orbit_sums(self, p):
        assert_rows_are_orbit_sums(_table(p))

    @pytest.mark.slow
    def test_verify_p41_rows_equal_cyclotomic_orbit_sums(self):
        report = verify_prime(41)
        assert report.overall_pass and report.class_count == len(report.row_names) == 215
        assert_rows_are_orbit_sums(character_table(41))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_averaging_oracle_all_orbits(self, p, request):
        table = request.getfixturevalue(f"table{p}")
        ct = table.class_table
        for rep in label_orbits(ct.group.quaternion):
            orbit_sum = table.row(f"ind_{rep[0]}_{rep[1]}").values
            averaged = induced_by_averaging(rep, ct)
            assert all(a == b for a, b in zip(averaged, orbit_sum))


class TestInflation:
    def test_psi_inflated_p3(self, classes3):
        q = classes3.group.quaternion
        vals = inflated_values((2, -2, 0, 0, 0), classes3)
        by_class = {classes3.rep_element(k): vals[k]
                    for k in range(classes3.n_classes)}
        assert by_class[(0, 0) + IDENT] == 2
        assert by_class[(0, 1) + IDENT] == 2
        assert by_class[(0, 0) + q.z.entries()] == -2
        for e, v in by_class.items():
            if e[2:] not in (IDENT, q.z.entries()):
                assert v == 0

    def test_trivial_inflates_to_all_ones(self, classes3):
        vals = inflated_values((1, 1, 1, 1, 1), classes3)
        assert all(v == 1 for v in vals)

    def test_inflation_preserves_degree(self, classes3):
        for _, q8vals in q8_character_table():
            assert inflated_values(q8vals, classes3)[0] == q8vals[0]


class TestTableAssembly:
    def test_p3_shape(self, table3):
        assert len(table3.rows) == 6
        assert sorted(r.degree for r in table3.rows) == [1, 1, 1, 1, 2, 8]
        assert sorted(r.indicator for r in table3.rows) == [-1, 1, 1, 1, 1, 1]
        assert table3.rows[table3.psi_index].name == "psi"

    def test_row_order_decision(self, table5):
        names = [r.name for r in table5.rows]
        assert names[:5] == ["triv", "linX", "linY", "linXY", "psi"]
        induced = names[5:]
        assert induced == sorted(induced)
        assert all(n.startswith("ind_") for n in induced)

    def test_p5_counting(self, table5):
        assert len(table5.rows) == 8
        assert sum(r.degree ** 2 for r in table5.rows) == 200

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_row_count_formula(self, p):
        table = character_table(p)
        assert len(table.rows) == 5 + (p * p - 1) // 8

    def test_degree_at_identity(self, table5):
        for r in table5.rows:
            assert r.values[0] == r.degree

    def test_values_stay_in_base_field(self, table7):
        for r in table7.rows:
            for v in r.values:
                assert v.p == 7
            if not r.name.startswith("ind_"):
                assert all(v.as_rational() is not None for v in r.values)

    def test_bad_prime_rejected(self):
        with pytest.raises(UsageError):
            character_table(2)
        with pytest.raises(UsageError):
            character_table(15)


class TestInnerProducts:
    def test_induced_has_norm_one(self, table3):
        ct = table3.class_table
        chi = table3.induced_row_for_label((1, 0))
        assert inner_product(ct, chi.values, chi.values) == 1

    def test_distinct_rows_orthogonal(self, table3):
        ct = table3.class_table
        chi = table3.induced_row_for_label((1, 0))
        psi = table3.row("psi")
        assert inner_product(ct, chi.values, psi.values) == 0

    def test_square_against_psi_p3(self, table3):
        ct = table3.class_table
        chi = table3.induced_row_for_label((1, 0))
        squared = tuple(v * v for v in exact(chi.values))  # Cyclotomics are RootSums
        assert inner_product(ct, squared, table3.row("psi").values) == 2

    def test_restriction_to_core(self, table3):
        ct = table3.class_table
        chi = table3.induced_row_for_label((1, 0))
        assert restriction_to_core_inner(ct, chi.values) == 0
        assert restriction_to_core_inner(ct, table3.row("triv").values) == 1


class TestCorruptInputsRejected:
    def test_non_rational_inner_product(self, classes3):
        z3 = RootSum(3, [0, 1, 0])
        zero = RootSum(3, [0, 0, 0])
        f = (z3,) + (zero,) * 5
        g = (RootSum(3, [1, 0, 0]),) + (zero,) * 5
        with pytest.raises(InvariantError, match="not rational"):
            inner_product(classes3, f, g)

    def test_non_integer_indicator(self, classes3):
        # 1/3 is no sum of roots of unity: neither value type can hold it, and
        # the kernel refuses every value that is not a RootSum at p = 3
        with pytest.raises(TypeError):
            RootSum(3, [Fraction(1, 3), 0, 0])
        with pytest.raises(TypeError):
            Cyclotomic(3, [Fraction(1, 3)])
        for value in (Fraction(1, 3), Cyclotomic(5, [1])):
            with pytest.raises(InvariantError, match=r"is not a RootSum with p = 3"):
                fs_indicator(classes3, (value,) * 6)

    def test_integral_non_integer_indicator(self, classes3):
        # 1 on the identity class: the class formula gives #{g : g^2 = 1} / |G| = 10/72
        at_identity = (RootSum(3, [1, 0, 0]),) + (RootSum(3, [0, 0, 0]),) * 5
        with pytest.raises(InvariantError, match="not a rational integer: 5/36"):
            fs_indicator(classes3, at_identity)

    def test_non_integer_multiplicity(self, table3):
        from q8family.characters import CharRow
        one = RootSum(3, [1, 0, 0])
        zero = RootSum(3, [0, 0, 0])
        fake = CharRow(name="fake", values=(one,) + (zero,) * 5,
                       degree=1, indicator=1)
        with pytest.raises(InvariantError, match="multiplicity"):
            tensor_square_decompose(table3, fake)


@cache
def _table(p):
    return character_table(p)


class TestIndicators:
    def test_p3_values(self, table3):
        ct = table3.class_table
        assert fs_indicator(ct, table3.induced_row_for_label((1, 0)).values) == 1
        assert fs_indicator(ct, table3.row("psi").values) == -1
        assert fs_indicator(ct, table3.row("triv").values) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_direct_path_agrees_on_every_row(self, p):
        table = _table(p)
        ct = table.class_table
        for r in table.rows:
            direct = fs_indicator_direct(ct, r.values)
            assert direct == r.indicator == fs_indicator(ct, r.values)
            assert direct == element_wise_indicator(ct, exact(r.values))

    def test_p3_contribution_breakdown(self, table3):
        # identity contributes 8, the 8 nonzero vectors -8, the z-fiber 72
        ct = table3.class_table
        group = ct.group
        chi = exact(table3.induced_row_for_label((1, 0)).values)

        def contribution(members):
            total = Cyclotomic(3, [])
            for e in members:
                k = ct.class_of[group.index[group.mul(e, e)]]
                total = total + chi[k]
            return total.as_rational()

        z = group.quaternion.z.entries()
        core = [e for e in group.elements if e[2:] == IDENT and e[:2] != (0, 0)]
        fiber = [e for e in group.elements if e[2:] == z]
        rest = [e for e in group.elements
                if e[2:] not in (IDENT, z)]
        assert contribution([group.identity]) == 8
        assert contribution(core) == -8
        assert contribution(fiber) == 72
        assert contribution(rest) == 0
        assert Fraction(8 - 8 + 72, 72) == 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_exactly_one_negative_indicator(self, p, request):
        table = request.getfixturevalue(f"table{p}")
        indicators = [r.indicator for r in table.rows]
        assert indicators.count(-1) == 1
        assert set(indicators) == {-1, 1}
        assert table.rows[indicators.index(-1)].degree == 2

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_sum_rule(self, p):
        from q8family.groups import count_square_roots_of_identity
        table = character_table(p)
        fs_sum = sum(r.indicator * r.degree for r in table.rows)
        assert fs_sum == 1 + p * p
        assert fs_sum == count_square_roots_of_identity(table.class_table)


class TestSquaringPass:
    """The root counts of `conjugacy_classes` against the literal element loops."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_counts_and_locus_match_the_literal_loops(self, p):
        table = _table(p)
        ct = table.class_table
        assert sum(ct.root_counts) == ct.order
        assert ct.root_counts[ct.class_of_element(ct.group.identity)] == 1 + p * p
        assert table.square_roots_count == 1 + p * p == count_square_roots_of_identity(ct)
        locus = {e for e in ct.group.elements if ct.class_of_element(e) in table.square_locus}
        assert locus == square_locus(ct.group)

    @pytest.mark.parametrize("field", ["square_map", "sizes"])
    def test_independent_of_the_class_formula_inputs(self, field):
        table = _table(7)
        ct = table.class_table
        genuine = [fs_indicator_direct(ct, r.values) for r in table.rows]
        corrupted = tuple(reversed(getattr(ct, field)))
        assert corrupted != getattr(ct, field)
        bad = rebuilt(ct, **{field: corrupted})
        assert [fs_indicator_direct(bad, r.values) for r in table.rows] == genuine

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_changed_coefficient_is_seen(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        table = _table(p)
        ct = table.class_table
        row = data.draw(st.sampled_from(table.rows))
        k = data.draw(st.sampled_from([k for k, r in enumerate(ct.root_counts) if r > 0]))
        # add a nonzero integer, or one more p-th root of unity other than 1
        e, delta = data.draw(st.tuples(st.just(0), st.integers(-3, 3).filter(bool))
                             | st.tuples(st.integers(1, p - 1), st.just(1)))
        counts = list(row.values[k].counts)
        counts[e] += delta
        values = row.values[:k] + (RootSum(p, counts),) + row.values[k + 1:]
        try:
            changed = fs_indicator_direct(ct, values)
        except InvariantError:
            return
        assert changed != row.indicator


class TestTensorSquare:
    def test_p3_full_decomposition(self, table3):
        chi = table3.induced_row_for_label((1, 0))
        dec = tensor_square_decompose(table3, chi)
        assert dec == {"triv": 1, "linX": 1, "linY": 1, "linXY": 1,
                       "psi": 2, "ind_0_1": 7}
        assert sum(m * table3.row(nm).degree for nm, m in dec.items()) == 64

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_psi_contained_for_every_orbit(self, p, request):
        table = request.getfixturevalue(f"table{p}")
        for rep in label_orbits(table.class_table.group.quaternion):
            dec = tensor_square_decompose(table, table.induced_row_for_label(rep))
            assert dec["psi"] >= 1
            assert dec["triv"] == 1
            assert all(m >= 0 for m in dec.values())

    def test_default_label(self):
        assert default_label(3) == (0, 1)
        assert default_label(13) == (0, 1)
