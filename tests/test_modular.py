"""The F_l kernel behind every class sum, against the exact route.

`selftest.exact_inner_product` sums in exact `Cyclotomic` arithmetic and is
the independent oracle; column sums, class-formula indicators and
restrictions to V are recomputed the same way here.  The packed kernel
`ModularImage.exact_sums` is checked against `_reference_sum`, the sum
of one pair at a time on the same residues.  The registry derives
second orthogonality from assembly's certificate; wherever that verdict
reads True the column sums must pass too.
"""

from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rebuilt
from q8family import modular
from q8family.characters import (TABLE_CHECKS, character_table, check_first_orthogonality,
                                 check_second_orthogonality, fs_indicator,
                                 fs_indicator_direct, inner_product, label_orbits,
                                 restriction_to_core_inner, tensor_square_decompose)
from q8family.cyclotomic import Cyclotomic, RootSum, root_of_unity
from q8family.errors import InvariantError
from q8family.groups import IDENTITY_MATRIX
from q8family.modp import is_odd_prime
from q8family.modular import (ModularImage, galois_class_permutation, image_of,
                              slot_bits, split_prime)
from q8family.selftest import exact_inner_product
from q8family.verify import run_table_checks, verify_label


@cache
def _table(p):
    return character_table(p)


def _values(table):
    return [r.values for r in table.rows]


def _exact(values):
    """A row's RootSum values as Cyclotomic, for arithmetic and the selftest oracles."""
    return tuple(v.to_cyclotomic() for v in values)


def _residue(value, image):
    """The image under zeta -> w, from the power-basis coefficients."""
    return sum(c * pow(image.w, i, image.ell)
               for i, c in enumerate(value.canonical()[1])) % image.ell


def _reference_sum(image, f, h):
    """sum_K |K| f(K) h(K) on residues, one pair at a time, as an integer of absolute value below l/2."""
    s = sum(size * x * y for size, x, y in zip(image.sizes, f, h)) % image.ell
    return s - image.ell if s > image.ell // 2 else s


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_packed_sums_equal_the_per_pair_reference_for_every_row_pair(p):
    values = _values(_table(p))
    image = image_of(_table(p).class_table, values)
    for f in image.residues:
        assert image.exact_sums(f, values) == [_reference_sum(image, f, h)
                                               for h in image.residues]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_packed_sums_equal_the_per_pair_reference_for_every_tensor_square(p):
    table = _table(p)
    values = _values(table)
    image = image_of(table.class_table, values)
    for rep in label_orbits(table.class_table.group.quaternion):
        chi = table.induced_row_for_label(rep)
        squared = [x * x % image.ell for x in image.residues[image.position(chi.values)]]
        want = [_reference_sum(image, squared, h) for h in image.residues]
        assert image.exact_sums(squared, values) == want
        assert list(tensor_square_decompose(table, chi).values()) == [
            Fraction(s, table.order) for s in want]


def test_packed_sums_of_a_batch_are_its_slots(table5):
    values = _values(table5)
    image = image_of(table5.class_table, values)
    f = image.residues[-1]
    every = image.exact_sums(f, values)
    assert image.exact_sums(f, [values[3], values[1]]) == [every[3], every[1]]
    assert image.exact_sums(f, []) == []


@pytest.mark.parametrize("p", [3, 5, 13])
def test_slot_width_is_the_fewest_whole_bytes_above_the_bound(p):
    table = _table(p)
    ct = table.class_table
    image = image_of(ct, _values(table))
    top = ct.n_classes * max(ct.sizes) * image.ell ** 2
    width = slot_bits(ct.n_classes, max(ct.sizes), image.ell)
    assert width % 8 == 0 and 1 << width > top >= 1 << (width - 8)


def test_the_per_pair_formula_is_not_a_second_kernel():
    assert not hasattr(ModularImage, "exact_sum")


def test_class_sizes_must_be_positive(table5):
    ct = table5.class_table
    sizes = (0,) + ct.sizes[1:]
    with pytest.raises(InvariantError, match="class sizes must be positive"):
        ModularImage(rebuilt(ct, sizes=sizes), _values(table5))


def test_one_residue_and_one_closure_check_per_shared_value(monkeypatch):
    table = character_table(11)
    values = _values(table)
    objects = {id(v) for row in values for v in row}
    read = []
    count_vector = modular.count_vector
    monkeypatch.setattr(modular, "count_vector", lambda v, p: read.append(id(v)) or count_vector(v, p))
    ModularImage(table.class_table, values)
    assert sorted(read) == sorted(objects)
    assert len(objects) < sum(map(len, values)) / 10


def test_a_table_holds_one_value_object_per_distinct_count_vector():
    table = character_table(17)
    cells = [v for r in table.rows for v in r.values]
    ids_by_counts = {}
    for v in cells:
        ids_by_counts.setdefault(v.counts, set()).add(id(v))
    assert all(len(ids) == 1 for ids in ids_by_counts.values())
    assert len(ids_by_counts) == len({id(v) for v in cells}) < len(cells)


def test_two_builds_of_one_prime_share_no_value_object():
    first, second = character_table(7), character_table(7)
    assert {id(v) for r in first.rows for v in r.values}.isdisjoint(
        id(v) for r in second.rows for v in r.values)
    assert first.class_table.value_pool is not second.class_table.value_pool


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
class TestKernelAgreesWithExactRoute:
    def test_gram_matrix(self, p):
        table = _table(p)
        ct = table.class_table
        for i, f in enumerate(table.rows):
            for g in table.rows[i:]:
                assert (inner_product(ct, f.values, g.values)
                        == exact_inner_product(ct, _exact(f.values), _exact(g.values)))

    def test_column_sums(self, p):
        table = _table(p)
        ct = table.class_table
        values = _values(table)
        assert dict(TABLE_CHECKS)["second_orthogonality"](table)[0] is True
        check_second_orthogonality(ct, values)
        image = image_of(ct, values)
        # the images of the conjugates, under zeta -> w^-1: every row is real
        inverse_powers = [pow(image.w, -e, image.ell) for e in range(p)]
        conjugates = [[sum(c * x for c, x in zip(v.counts, inverse_powers)) % image.ell
                       for v in row] for row in values]
        assert conjugates == image.residues and not hasattr(image, "conjugates")
        exact_rows = [_exact(v) for v in values]
        for k in range(ct.n_classes):
            for k2 in range(ct.n_classes):
                exact = sum((v[k] * v[k2].conjugate() for v in exact_rows), Cyclotomic(p, []))
                assert exact == (ct.centralizer_orders[k] if k == k2 else 0)
                kernel = sum(image.residues[i][k] * conjugates[i][k2]
                             for i in range(len(values))) % image.ell
                assert kernel == _residue(exact, image)

    def test_every_tensor_square(self, p):
        table = _table(p)
        ct = table.class_table
        for rep in label_orbits(ct.group.quaternion):
            chi = table.induced_row_for_label(rep)
            squared = tuple(v * v for v in _exact(chi.values))
            dec = tensor_square_decompose(table, chi)
            assert dec == {r.name: exact_inner_product(ct, squared, _exact(r.values))
                           for r in table.rows}

    def test_indicator_and_restriction(self, p):
        table = _table(p)
        ct = table.class_table
        core = [k for k in range(ct.n_classes) if ct.rep_element(k)[2:] == IDENTITY_MATRIX]
        for r in table.rows:
            v, x = r.values, _exact(r.values)
            zero = Cyclotomic(p, [])
            indicator = Fraction(sum((ct.sizes[k] * x[k2] for k, k2 in enumerate(ct.square_map)),
                                     zero).as_rational(), ct.order)
            restriction = Fraction(sum((ct.sizes[k] * x[k] for k in core), zero).as_rational(),
                                   p ** 2)
            assert fs_indicator(ct, v) == indicator == fs_indicator_direct(ct, v) == r.indicator
            got = restriction_to_core_inner(ct, v)
            assert got == restriction and type(got) is Fraction


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_changed_coefficient_is_refused(p, data):
    table = _table(p)
    values = _values(table)
    i = data.draw(st.integers(0, len(values) - 1), label="row")
    k = data.draw(st.integers(0, len(values[i]) - 1), label="class")
    e = data.draw(st.integers(0, p - 2), label="power")
    delta = data.draw(st.integers(-3, 3).filter(bool), label="delta")
    coeffs = list(values[i][k].canonical()[1])
    coeffs += [0] * (p - 1 - len(coeffs))  # a rational has one
    coeffs[e] += delta
    row = values[i][:k] + (RootSum(p, coeffs + [0]),) + values[i][k + 1:]
    with pytest.raises(InvariantError, match="first orthogonality"):
        check_first_orthogonality(table.class_table, values[:i] + [row] + values[i + 1:])


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_more_root_is_refused(p, data):
    table = _table(p)
    values = _values(table)
    i = data.draw(st.integers(0, len(values) - 1), label="row")
    k = data.draw(st.integers(0, len(values[i]) - 1), label="class")
    e = data.draw(st.integers(0, p - 1), label="exponent")
    counts = list(values[i][k].counts)
    counts[e] += 1
    row = values[i][:k] + (RootSum(p, counts),) + values[i][k + 1:]
    with pytest.raises(InvariantError, match="first orthogonality"):
        check_first_orthogonality(table.class_table, values[:i] + [row] + values[i + 1:])


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_adding_all_ones_changes_no_result(p, data):
    """sum_e zeta^e = 0, so the shifted counts name the same value."""
    table = _table(p)
    i = data.draw(st.integers(0, len(table.rows) - 1), label="row")
    k = data.draw(st.integers(0, table.class_table.n_classes - 1), label="class")
    shift = data.draw(st.integers(-3, 3).filter(bool), label="shift")
    row = table.rows[i]
    value = RootSum(p, [c + shift for c in row.values[k].counts])
    assert value == row.values[k] and str(value) == str(row.values[k])
    shifted = rebuilt(table, rows=table.rows[:i] + (
        rebuilt(row, values=row.values[:k] + (value,) + row.values[k + 1:]),) + table.rows[i + 1:])
    ct = table.class_table
    check_first_orthogonality(ct, _values(shifted))
    assert fs_indicator(ct, shifted.rows[i].values) == row.indicator
    assert fs_indicator_direct(ct, shifted.rows[i].values) == row.indicator
    shifted_facts, facts = run_table_checks(shifted), run_table_checks(table)
    assert shifted_facts == facts
    for rep in label_orbits(ct.group.quaternion):
        got, want = verify_label(shifted, rep, shifted_facts), verify_label(table, rep, facts)
        got.timings = want.timings = {}
        assert got == want


@pytest.mark.parametrize("p", [7, 11])  # at p = 3 and 5 pi is the identity
def test_galois_consistent_edit_is_refused_by_the_residues(p):
    table = _table(p)
    ct = table.class_table
    g, perm = galois_class_permutation(ct)
    k = next(k for k in range(ct.n_classes) if perm[k] != k)
    cycle = [k]
    while perm[cycle[-1]] != k:
        cycle.append(perm[cycle[-1]])
    # sigma_g^j of the Gauss period fixed by sigma_g^len(cycle), at pi^j K
    period = range(0, p - 1, len(cycle))
    orbit = {c: {pow(g, t + j, p) for t in period} for j, c in enumerate(cycle)}
    values = _values(table)
    i = len(values) - 1
    values[i] = tuple(RootSum(p, [n + (e in orbit[c]) for e, n in enumerate(v.counts)])
                      if c in orbit else v for c, v in enumerate(values[i]))
    ModularImage(ct, values)  # the edited rows are still Galois-closed
    with pytest.raises(InvariantError, match=r"first orthogonality fails at rows"):
        check_first_orthogonality(ct, values)


def test_centralizer_orders_must_be_galois_invariant(table7):
    # |C(K)| = |G| / |K|, so a class size edit is what moves a centralizer order
    ct = table7.class_table
    _, perm = galois_class_permutation(ct)
    k = next(k for k in range(ct.n_classes) if perm[k] != k)
    sizes = list(ct.sizes)
    sizes[k] -= 1  # 8 -> 7, which still divides |G| = 392
    bad = rebuilt(table7, class_table=rebuilt(ct, sizes=tuple(sizes)))
    assert bad.class_table.centralizer_orders[k] == 56 != ct.centralizer_orders[perm[k]]
    with pytest.raises(InvariantError, match="does not preserve class sizes"):
        galois_class_permutation(bad.class_table)
    assert dict(TABLE_CHECKS)["second_orthogonality"](bad)[0] is False
    with pytest.raises(InvariantError, match="does not preserve class sizes"):
        check_second_orthogonality(bad.class_table, _values(bad))


def test_square_map_must_commute_with_galois_action(table7):
    ct = table7.class_table
    _, perm = galois_class_permutation(ct)
    k = next(k for k in range(ct.n_classes) if perm[k] != k)
    squares = list(ct.square_map)
    squares[k] = 0  # a nonzero vector of V squared to the identity class
    bad = rebuilt(ct, square_map=tuple(squares))
    with pytest.raises(InvariantError, match="does not commute with the square map"):
        galois_class_permutation(bad)
    with pytest.raises(InvariantError, match="does not commute with the square map"):
        fs_indicator(bad, table7.rows[0].values)


def test_a_class_permutation_not_squaring_to_negation_is_refused():
    # A stub at p = 5, g = 2, whose classes 1..4 are the single vectors
    # (1, 0), (2, 0), (4, 0), (3, 0): v -> 2v is one 4-cycle, so pi^2, the
    # permutation of v -> -v, is not the identity and closed functions
    # need not be real.  Sizes and the square map pass.
    reps = [(0, 0), (1, 0), (2, 0), (4, 0), (3, 0)]
    ct = SimpleNamespace(p=5, n_classes=5, sizes=(1,) * 5, square_map=(0,) * 5,
                         core=frozenset(range(5)),
                         rep_element=lambda k: reps[k] + IDENTITY_MATRIX,
                         class_of_element=lambda e: reps.index(e[:2]))
    with pytest.raises(InvariantError, match=r"permutation of v -> -v is not the identity"):
        galois_class_permutation(ct)
    with pytest.raises(InvariantError, match=r"permutation of v -> -v is not the identity"):
        ModularImage(ct, [(RootSum(5, [1, 0, 0, 0, 0]),) * 5])


def test_values_outside_z_zeta_p_are_refused(classes3):
    # neither value type takes a coefficient that is not an int, so 1/2 cannot be
    # written as one
    with pytest.raises(TypeError):
        RootSum(3, [Fraction(1, 2), 0, 0])
    with pytest.raises(TypeError):
        Cyclotomic(3, [Fraction(1, 2)])
    refused = [RootSum(5, [0, 1, 0, 0, 0]), Fraction(1, 2), Cyclotomic(5, [1]),
               root_of_unity(5, 1), 1]
    for value in refused:
        with pytest.raises(InvariantError, match="is not a RootSum with p = 3"):
            ModularImage(classes3, [(value,) * classes3.n_classes])


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13, 17, 23]), bound=st.integers(1, 10 ** 5))
def test_split_prime(p, bound):
    ell, w = split_prime(p, bound)
    assert is_odd_prime(ell) and ell % p == 1 and ell > 2 * bound
    assert w != 1 and pow(w, p, ell) == 1
    assert not any(is_odd_prime(q) for q in range(2 * bound + 1, ell) if q % p == 1)


def test_image_bound_covers_every_needed_sum(table5):
    image = image_of(table5.class_table, _values(table5))
    m = max(sum(map(abs, v.counts)) for r in table5.rows for v in r.values)
    assert m == 8  # an orbit of 8 labels
    assert image.bound >= table5.order * m ** 3
    assert image.bound >= 2 * len(table5.rows) * m ** 2 + max(table5.class_table.centralizer_orders)
    assert image.ell > 2 * image.bound


def test_one_embedding_per_table(monkeypatch):
    built = []

    class Counted(ModularImage):
        def __init__(self, ct, functions):
            built.append(len(functions))
            super().__init__(ct, functions)

    monkeypatch.setattr(modular, "ModularImage", Counted)
    table = character_table(7)
    facts = run_table_checks(table)
    for rep in label_orbits(table.class_table.group.quaternion):
        verify_label(table, rep, facts)
    assert built == [len(table.rows)]


def test_a_table_with_other_rows_gets_its_own_image(table5):
    ct = table5.class_table
    genuine = image_of(ct, _values(table5))
    rows = table5.rows[:-1] + (rebuilt(table5.rows[-1], values=tuple(table5.rows[-1].values)),)
    assert image_of(ct, [r.values for r in rows]) is genuine  # same value tuple
    last = table5.rows[-1].values[-1].counts
    edited = table5.rows[-1].values[:-1] + (RootSum(5, (last[0] + 1, *last[1:])),)
    other = rebuilt(table5, rows=table5.rows[:-1] + (rebuilt(table5.rows[-1], values=edited),))
    assert image_of(ct, _values(other)) is not genuine
    ok, _ = dict(TABLE_CHECKS)["second_orthogonality"](other)
    assert ok is False
    with pytest.raises(InvariantError, match="second orthogonality fails at classes"):
        check_second_orthogonality(ct, _values(other))
