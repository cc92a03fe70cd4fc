"""The `selftest` suite: its group kernel, its oracles' cost and freshness,
its printed bytes, and that each oracle fails on a table corrupted for it."""

import hashlib
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebuilt
from q8family import cli, selftest
from q8family import characters
from q8family.characters import (CharacterTable, assemble_character_table,
                                 label_orbits)
from q8family.cyclotomic import Cyclotomic, RootSum, root_of_unity
from q8family.errors import InvariantError
from q8family.groups import (SemidirectGroup, build_group, conjugacy_classes,
                             conjugated_subgroup, quaternion_subgroup)
from q8family.modp import Mat2
from q8family.selftest import (element_wise_indicator, exact_inner_product,
                               induced_by_averaging, run_selftest)

# sha256 of `q8family selftest --prime p` stdout, as first recorded
SELFTEST_STDOUT_SHA256 = {
    3: "5dedeed0a192648c5dfd5b39cf4218bf1ee1fa835d77808c1c069ea23d692b15",
    5: "9ade7b73398b86b4ea166c2c21fce78a261660c9ab85187eca3fdc3c713055b6",
    7: "5b3ca22055fe7bc1fc9abdb8cadb8ca8995cb051c8b7bbe8c3e83f25952d3f47",
    11: "dc58bcf77f3802c2f7a2d24d59b5c0ba52c4a281bded4592cf0fc093421ae225",
    13: "d7d4a9dd35cab290b61573ee9a27ca55e370571a0be1580b51a8d96e0b8b5212",
}


@cache
def _group(p, conjugated):
    q = quaternion_subgroup(p)
    if conjugated:
        q = conjugated_subgroup(q, Mat2.make(1, 1, 0, 1, p))
    return build_group(p, q)


def _table(group):
    return assemble_character_table(conjugacy_classes(group))


def _count_calls(monkeypatch, name):
    """Count the calls of SemidirectGroup.<name> from here on."""
    calls = []
    method = getattr(SemidirectGroup, name)

    def counted(self, g, h):
        calls.append(1)
        return method(self, g, h)

    monkeypatch.setattr(SemidirectGroup, name, counted)
    return calls


# ---------------------------------------------------------------- kernel


class TestConjKernel:
    @pytest.mark.parametrize("p", [3, 5])
    def test_every_pair_matches_two_products_and_an_inverse(self, p):
        group = _group(p, False)
        for g in group.elements:
            g_inv = group.inv(g)
            for h in group.elements:
                assert group.conj(g, h) == group.mul(group.mul(g, h), g_inv)

    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11, 13]), conjugated=st.booleans(), data=st.data())
    def test_sampled_pairs_match_two_products_and_an_inverse(self, p, conjugated, data):
        group = _group(p, conjugated)
        index = st.integers(0, len(group) - 1)
        g = group.elements[data.draw(index)]
        h = group.elements[data.draw(index)]
        assert group.conj(g, h) == group.mul(group.mul(g, h), group.inv(g))


# ---------------------------------------------------------------- counted work


class TestOracleCost:
    def test_run_selftest_conjugates_only_in_z_inverts_core_and_the_partition(
            self, monkeypatch):
        calls = _count_calls(monkeypatch, "conj")
        results = run_selftest(7)
        assert all(r.ok for r in results)
        # z on each of the 49 v in V, plus the class partition's 7 nonidentity
        # matrices of Q by its 8; the averaging oracle counts conjugates by blocks
        assert len(calls) == 7 ** 2 + 7 * 8 == 105

    @pytest.mark.parametrize("p", [3, 5])
    def test_element_wise_indicator_squares_each_element_once_per_group(
            self, p, monkeypatch):
        group = build_group(p)
        tables = (_table(group), _table(group))
        calls = _count_calls(monkeypatch, "mul")
        groupings = selftest._landing_counts.cache_info().misses
        for table in tables:
            for _ in range(2):
                for r in table.rows:
                    exact = tuple(v.to_cyclotomic() for v in r.values)
                    assert element_wise_indicator(table.class_table, exact) == r.indicator
        # squares once per group, groups them by class once per class table
        assert len(calls) == len(group)
        assert selftest._landing_counts.cache_info().misses - groupings == len(tables)


# ---------------------------------------------------------------- literal oracles


def _conjugate_multiset(group, g):
    """The averaging kernel's counts as a Counter of conjugates (y0, y1, a, b, c, d)."""
    return Counter({divmod(y, group.p) + m: n
                    for m, counts in selftest._conjugates_by_matrix(group, g).items()
                    for y, n in counts.items()})


class TestConjugateCounts:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_each_reps_conjugates_total_the_group_order(self, p):
        group = _group(p, False)
        blocks = selftest._elements_by_matrix(group)
        assert sorted(x for _, xs in blocks for x in xs) == sorted(group.elements)
        assert all(x[2:] == n for n, xs in blocks for x in xs)
        ct = conjugacy_classes(group)
        for k in range(ct.n_classes):
            assert sum(_conjugate_multiset(group, ct.rep_element(k)).values()) == len(group)

    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_reps_conjugates_are_those_of_conj_and_of_two_products(self, p, conjugated):
        group = _group(p, conjugated)
        ct = conjugacy_classes(group)
        for k in range(ct.n_classes):
            g = ct.rep_element(k)
            counted = _conjugate_multiset(group, g)
            assert counted == Counter(group.conj(x, g) for x in group.elements)
            assert counted == Counter(group.mul(group.mul(x, g), group.inv(x))
                                      for x in group.elements)

    @settings(max_examples=12, deadline=None)
    @given(p=st.sampled_from([11, 13]), conjugated=st.booleans(), data=st.data())
    def test_sampled_conjugates_are_those_of_conj(self, p, conjugated, data):
        group = _group(p, conjugated)
        g = group.elements[data.draw(st.integers(0, len(group) - 1))]
        assert _conjugate_multiset(group, g) == Counter(group.conj(x, g) for x in group.elements)


def _cyclotomic_inner_product(ct, f, g):
    """The reference sum of size * f * g.conjugate() in `Cyclotomic` arithmetic, or None."""
    total = Cyclotomic(ct.p, [])
    for size, fv, gv in zip(ct.sizes, f, g):
        total = total + size * (fv.to_cyclotomic() * gv.to_cyclotomic().conjugate())
    r = total.as_rational()
    return None if r is None else Fraction(r, ct.order)


def _literal_indicator(ct, values):
    """The reference column sum of chi(g^2), one term per element, or None."""
    group = ct.group
    terms = [values[ct.class_of_element(group.mul(e, e))].counts for e in group.elements]
    r = RootSum(ct.p, [sum(column) for column in zip(*terms)]).as_rational()
    return None if r is None else Fraction(r, ct.order)


def _or_none(oracle, *args):
    try:
        return oracle(*args)
    except InvariantError:
        return None


class TestSumsOnCounts:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_inner_products_match_the_cyclotomic_sum(self, p):
        table = _table(_group(p, False))
        ct, rows = table.class_table, table.rows
        chi = table.induced_row_for_label(characters.default_label(p))
        pairs = ([(f, g) for f in rows for g in rows] if p <= 7
                 else [(chi, g) for g in rows])
        for f, g in pairs:
            assert (exact_inner_product(ct, f.values, g.values)
                    == _cyclotomic_inner_product(ct, f.values, g.values))
        squared = tuple(v.to_cyclotomic() * v.to_cyclotomic() for v in chi.values)
        psi = table.row("psi").values
        assert exact_inner_product(ct, squared, psi) == _cyclotomic_inner_product(
            ct, squared, psi) >= 1

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_indicators_match_the_literal_column_sum(self, p):
        table = _table(_group(p, True))
        for r in table.rows:
            assert (element_wise_indicator(table.class_table, r.values)
                    == _literal_indicator(table.class_table, r.values) == r.indicator)

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_sums_of_arbitrary_class_functions_match_the_references(self, p, data):
        # complex values included: a wrong direction of conjugation shows here,
        # while every row of the table is real
        ct = _table(_group(p, False)).class_table
        counts = st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=p, max_size=p)
        function = st.lists(counts.map(lambda c: RootSum(p, c)),
                            min_size=ct.n_classes, max_size=ct.n_classes)
        f, g = data.draw(function), data.draw(function)
        for h in (f, g):
            assert _or_none(element_wise_indicator, ct, h) == _literal_indicator(ct, h)
            assert _or_none(exact_inner_product, ct, h, h) == _cyclotomic_inner_product(ct, h, h)
        assert _or_none(exact_inner_product, ct, f, g) == _cyclotomic_inner_product(ct, f, g)

    def test_a_root_of_unity_has_norm_one_and_is_orthogonal_to_its_square(self):
        ct = _table(_group(5, False)).class_table
        zeta, zeta_squared = ([root_of_unity(5, k)] * ct.n_classes for k in (1, 2))
        assert exact_inner_product(ct, zeta, zeta) == 1
        with pytest.raises(InvariantError, match="not rational"):
            exact_inner_product(ct, zeta, zeta_squared)


# ---------------------------------------------------------------- memo freshness


@pytest.mark.parametrize("p", [5, 7])
def test_averaging_oracle_matches_each_tables_rows_across_groups(p):
    canonical, conjugated = _table(build_group(p)), _table(_group(p, True))
    for table in (canonical, conjugated, canonical):
        ct = table.class_table
        for rep in label_orbits(ct.group.quaternion):
            averaged = induced_by_averaging(rep, ct)
            assert averaged == tuple(v.to_cyclotomic()
                                     for v in table.row(f"ind_{rep[0]}_{rep[1]}").values)


# ---------------------------------------------------------------- bytes


@pytest.mark.parametrize("p", sorted(SELFTEST_STDOUT_SHA256))
def test_selftest_stdout_is_the_recorded_bytes(p, capsys):
    assert cli.main(["selftest", "--prime", str(p)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_STDOUT_SHA256[p]


# ---------------------------------------------------------------- fault injection


def _permute_induced_rows(ct):
    """The real table with the induced rows' values rotated one place among their names."""
    table = assemble_character_table(ct)
    induced = [i for i, r in enumerate(table.rows) if r.name.startswith("ind_")]
    rows = list(table.rows)
    for i, j in zip(induced, induced[1:] + induced[:1]):
        rows[i] = rebuilt(table.rows[i], values=table.rows[j].values)
    return CharacterTable(class_table=ct, rows=tuple(rows))


def _bump_identity_root_count(group):
    """Real classes, but |G| more roots counted for the identity class.

    Every row's root-count indicator moves by its degree, so it stays an
    integer and the fault surfaces as a verdict rather than an exception.
    """
    ct = conjugacy_classes(group)
    return rebuilt(ct, root_counts=(ct.root_counts[0] + ct.order,) + ct.root_counts[1:])


def _swap_core_square_map(group):
    """Real classes, but the square map swapped on two nonidentity classes in V.

    Squaring permutes the nonidentity classes in V, all of size 8, so the
    class-formula indicators stay as they were; only the map is wrong.
    """
    ct = conjugacy_classes(group)
    k1, k2 = [k for k in range(1, ct.n_classes) if group.in_core(ct.rep_element(k))][:2]
    square_map = list(ct.square_map)
    square_map[k1], square_map[k2] = square_map[k2], square_map[k1]
    assert square_map != list(ct.square_map)
    return rebuilt(ct, square_map=tuple(square_map))


def _shift_trivial_row_by_induced_difference(ct):
    """The real table, but triv + ind_1_1 - ind_1_3 in place of the trivial row (p = 7).

    The two induced rows agree at the identity and have the same
    multiplicity in chi^2, so the edited row is Galois-closed, its
    indicators and tensor-square multiplicity are those of triv, and every
    other oracle runs to a verdict; only its values leave Q.  At p = 5
    every row is rational, and a value outside Q that is not Galois-closed
    makes the kernel raise before the line is reached.
    """
    table = assemble_character_table(ct)
    triv, plus, minus = (table.row(name).values for name in ("triv", "ind_1_1", "ind_1_3"))
    shifted = tuple(RootSum(ct.p, [a + b - c for a, b, c in zip(t.counts, x.counts, y.counts)])
                    for t, x, y in zip(triv, plus, minus))
    rows = (rebuilt(table.rows[0], values=shifted),) + table.rows[1:]
    return CharacterTable(class_table=ct, rows=rows)


def _inner_product_plus_one(ct, f, g):
    return characters.inner_product(ct, f, g) + 1


def _zeta_plus_zeta_squared(p, k):
    return root_of_unity(p, k) + root_of_unity(p, 2 * k)


CORRUPTIONS = [
    ("assemble_character_table", _permute_induced_rows, "induction_oracle", 5),
    # built outside assembly, so neither orthogonality verdict is certified
    ("assemble_character_table", _permute_induced_rows, "first_orthogonality", 5),
    ("assemble_character_table", _permute_induced_rows, "second_orthogonality", 5),
    ("conjugacy_classes", _bump_identity_root_count, "indicator_oracle", 5),
    ("conjugacy_classes", _bump_identity_root_count, "square_roots_count", 5),
    ("conjugacy_classes", _swap_core_square_map, "square_map_total", 5),
    ("assemble_character_table", _shift_trivial_row_by_induced_difference,
     "values_in_base_field", 7),
    ("inner_product", _inner_product_plus_one, "orthogonality_oracle", 5),
    ("root_of_unity", _zeta_plus_zeta_squared, "cyclotomic_basics", 5),
]


@pytest.mark.parametrize("target, corrupt, check, p", CORRUPTIONS,
                         ids=[c for _, _, c, _ in CORRUPTIONS])
def test_corrupted_table_fails_its_oracle_and_exits_three(target, corrupt, check, p,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(selftest, target, corrupt)
    [line] = [r for r in run_selftest(p) if r.name == check]
    assert not line.ok
    assert cli.main(["selftest", "--prime", str(p)]) == 3
    assert f"FAIL {check}" in capsys.readouterr().out


def test_inexact_averaging_division_raises_and_exits_three(monkeypatch, capsys):
    # one conjugate counted once too often: a count is no longer a multiple of |V| = 25
    real = selftest._conjugates_in_core

    def one_extra(group, g):
        counts = real(group, g)
        return ((counts[0][0], counts[0][1] + 1),) + counts[1:] if counts else counts

    monkeypatch.setattr(selftest, "_conjugates_in_core", one_extra)
    ct = conjugacy_classes(build_group(5))
    with pytest.raises(InvariantError, match=r"is not divisible by \|V\| = 25"):
        induced_by_averaging(min(label_orbits(ct.group.quaternion)), ct)
    assert cli.main(["selftest", "--prime", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    [line] = [ln for ln in out.splitlines() if ln.startswith("FAIL induction_oracle")]
    assert " averaging sum of label " in line and line.endswith(" is not divisible by |V| = 25")
    assert out.endswith("selftest p=5: 23/24 checks passed\n")


def _zeta_as_last_linx_value(ct):
    """The real table, but zeta in place of the linX row's last value.

    The row is no longer Galois-closed, so the F_l kernel and the
    element-wise indicator raise InvariantError inside their oracles.
    """
    table = assemble_character_table(ct)
    i = table.row_index_by_name["linX"]
    zeta = RootSum(ct.p, [0, 1] + [0] * (ct.p - 2))
    rows = list(table.rows)
    rows[i] = rebuilt(rows[i], values=rows[i].values[:-1] + (zeta,))
    return CharacterTable(class_table=ct, rows=tuple(rows))


def test_an_oracle_that_raises_fails_its_own_line_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "assemble_character_table", _zeta_as_last_linx_value)
    results = run_selftest(5)
    assert [r.name for r in results][-1] == "orthogonality_oracle"
    failed = {r.name: r.detail for r in results if not r.ok}
    assert failed["indicator_oracle"] == "element-wise indicator sum is not rational"
    for name in ("second_orthogonality", "tensor_square", "orthogonality_oracle"):
        assert "is not Galois-closed" in failed[name]
    assert cli.main(["selftest", "--prime", "5"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert "FAIL indicator_oracle         element-wise indicator sum is not rational\n" in out
    assert out.endswith(f"selftest p=5: {len(results) - len(failed)}/{len(results)} "
                        "checks passed\n")
