"""Fault injection: each entry of the table-check registry catches its fault.

Every case corrupts one thing in a genuine p=5 table and asserts that the
targeted registry entry reports False, both directly and as recorded by
`verify.run_table_checks`.  The two square checks read the square map and
the sizes of the classes, so a square map or class size edited after the
squaring pass is also a fault they must see; the sum rule also compares
the root counts with the square map, so an edited root count is one too.
First orthogonality is decided by assembly, which refuses a corrupted
row; the registry then reads the certificate assembly recorded, so a row
edited afterwards reads False.  Second orthogonality is derived from that
certificate, and the column sums `selftest` runs as its oracle must never
be stricter.  A cached table document that breaks one of the integer
invariants is never served: the cache is only compared with the text of
the table just built, and the `table` command rejects, rebuilds and
rewrites such a file.
"""

import pytest

from conftest import assert_edit_rebuilt, rebuilt

from q8family import characters
from q8family.characters import (IDENTITY_MATRIX, TABLE_CHECKS, CharacterTable,
                                 assemble_character_table,
                                 check_second_orthogonality)
from q8family.cyclotomic import RootSum
from q8family.errors import InvariantError
from q8family.groups import SemidirectGroup, build_group, conjugacy_classes
from q8family.modp import Mat2
from q8family.serialize import (canonical_json, load_cached_table, store_cached_table,
                                table_document)
from q8family.verify import run_table_checks


def _with_row(table, name, **changes):
    rows = tuple(rebuilt(r, **changes) if r.name == name else r for r in table.rows)
    return rebuilt(table, rows=rows)


def _with_classes(table, **changes):
    return rebuilt(table, class_table=rebuilt(table.class_table, **changes))


def _bump_first(seq):
    return (seq[0] + 1,) + tuple(seq[1:])


def _wrong_centralizer(table):
    return _with_classes(table, centralizer_orders=_bump_first(table.class_table.centralizer_orders))


def _wrong_size(table):
    return _with_classes(table, sizes=_bump_first(table.class_table.sizes))


def _wrong_degree(table):
    return _with_row(table, "triv", degree=3)


def _flipped_psi_indicator(table):
    return _with_row(table, "psi", indicator=1)


def _wrong_central_involution(table):
    """The group's z replaced by X, so V<z> names the wrong coset."""
    group = table.class_table.group
    q = group.quaternion
    return _with_classes(table, group=SemidirectGroup(rebuilt(q, z=q.x)))


def _replaced(seq, k, value):
    return seq[:k] + (value,) + seq[k + 1:]


def _z_class(ct):
    return ct.class_of_element((0, 0) + ct.group.quaternion.z.entries())


def _z_class_squares_to_itself(table):
    """The class V z sent to itself by the square map instead of to {1}."""
    ct = table.class_table
    kz = _z_class(ct)
    return _with_classes(table, square_map=_replaced(ct.square_map, kz, kz))


def _z_class_size_edited(table):
    """The class V z given one element more than its p^2."""
    ct = table.class_table
    kz = _z_class(ct)
    return _with_classes(table, sizes=_replaced(ct.sizes, kz, ct.sizes[kz] + 1))


def _core_class_squares_to_z(table):
    """A nonidentity class of V sent by the square map to V z, off V."""
    ct = table.class_table
    k = next(k for k in range(1, ct.n_classes) if ct.rep_element(k)[2:] == IDENTITY_MATRIX)
    return _with_classes(table, square_map=_replaced(ct.square_map, k, _z_class(ct)))


def _edited_induced_value(table):
    """One more zeta^0 in an induced row's value at a nonidentity class inside V."""
    ct = table.class_table
    k = next(k for k in range(1, ct.n_classes) if ct.rep_element(k)[2:] == IDENTITY_MATRIX)
    row = next(r for r in table.rows if r.name.startswith("ind_"))
    counts = row.values[k].counts
    value = RootSum(ct.p, (counts[0] + 1, *counts[1:]))
    return _with_row(table, row.name, values=row.values[:k] + (value,) + row.values[k + 1:])


def _induced_value_off_core(table):
    ct = table.class_table
    off = next(k for k in range(ct.n_classes) if ct.rep_element(k)[2:] != IDENTITY_MATRIX)
    row = next(r for r in table.rows if r.name.startswith("ind_"))
    values = row.values[:off] + (RootSum(ct.p, [1] + [0] * (ct.p - 1)),) + row.values[off + 1:]
    return _with_row(table, row.name, values=values)


CORRUPTIONS = {
    "first_orthogonality": _edited_induced_value,
    "second_orthogonality": _wrong_centralizer,
    "degree_sum": _wrong_degree,
    "class_partition": _wrong_size,
    "sum_rule": _flipped_psi_indicator,
    "square_locus": _wrong_central_involution,
    "core_involution_squares": _wrong_central_involution,
    "induced_vanish_off_core": _induced_value_off_core,
}

# fault -> the square check that must see it
SQUARE_FACT_CORRUPTIONS = {
    _z_class_squares_to_itself: "core_involution_squares",
    _z_class_size_edited: "core_involution_squares",
    _core_class_squares_to_z: "square_locus",
}


def test_registry_order_is_the_report_order():
    assert [name for name, _ in TABLE_CHECKS] == [
        "first_orthogonality", "second_orthogonality", "degree_sum",
        "class_partition", "sum_rule", "square_locus",
        "core_involution_squares", "induced_vanish_off_core"]


def test_every_entry_has_a_fault_case():
    names = {name for name, _ in TABLE_CHECKS}
    assert names == set(CORRUPTIONS)


def test_genuine_table_passes_every_entry(table5):
    for name, fn in TABLE_CHECKS:
        ok, detail = fn(table5)
        assert ok, f"{name}: {detail}"


def assert_reported(bad, name):
    ok, _ = dict(TABLE_CHECKS)[name](bad)
    assert ok is False
    assert run_table_checks(bad).checks[name] is False


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_entry_reports_its_fault(table5, name):
    assert_reported(CORRUPTIONS[name](table5), name)


@pytest.mark.parametrize("corrupt", SQUARE_FACT_CORRUPTIONS,
                         ids=[fault.__name__.strip("_") for fault in SQUARE_FACT_CORRUPTIONS])
def test_square_check_reports_an_edited_class_table(table5, corrupt):
    assert_reported(corrupt(table5), SQUARE_FACT_CORRUPTIONS[corrupt])


def test_square_checks_read_false_when_z_is_not_in_the_group(table5):
    q = table5.class_table.group.quaternion
    bad = _with_classes(table5, group=SemidirectGroup(rebuilt(q, z=Mat2.make(1, 1, 0, 1, 5))))
    for name in ("square_locus", "core_involution_squares"):
        assert_reported(bad, name)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_single_root_count_edit_is_reported(request, p):
    # r(K) = #{g : g^2 in K}; an edit on a class where chi and psi vanish
    # moves no indicator, so the sum rule must compare r with the square map
    table = request.getfixturevalue(f"table{p}")
    counts = table.class_table.root_counts
    for k, r in enumerate(counts):
        for delta in (1, 2, -1)[:3 if r else 2]:
            edited = tuple(counts[:k]) + (r + delta,) + tuple(counts[k + 1:])
            bad = _with_classes(table, root_counts=edited)
            try:
                reported = run_table_checks(bad).checks["sum_rule"] is False
            except InvariantError:
                reported = True
            assert reported, f"r({k}) edited by {delta:+d} went unreported"


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_derived_second_orthogonality_is_never_laxer_than_the_column_sums(table5, name):
    bad = CORRUPTIONS[name](table5)
    ok, _ = dict(TABLE_CHECKS)["second_orthogonality"](bad)
    if ok:
        check_second_orthogonality(bad.class_table, [r.values for r in bad.rows])


def test_table_built_outside_assembly_is_not_certified(table5):
    direct = CharacterTable(class_table=table5.class_table, rows=table5.rows)
    checks = dict(TABLE_CHECKS)
    assert checks["first_orthogonality"](direct)[0] is False
    assert checks["second_orthogonality"](direct)[0] is False


def test_corrupted_row_refused_by_assembly(monkeypatch):
    genuine = characters.induced_values

    def corrupted(label, ct):
        values = genuine(label, ct)
        last = values[-1].counts
        return values[:-1] + (RootSum(ct.p, (last[0] + 1, *last[1:])),)

    monkeypatch.setattr(characters, "induced_values", corrupted)
    ct = conjugacy_classes(build_group(5))
    with pytest.raises(InvariantError, match="first orthogonality"):
        assemble_character_table(ct)


def test_certified_rows_cannot_be_swapped(table5):
    with pytest.raises(AttributeError):
        table5.rows = table5.rows[::-1]


# -- cached documents ------------------------------------------------------------


def _char(doc, name):
    return next(ch for ch in doc["characters"] if ch["name"] == name)


def _drop_last_row_and_class(doc):
    doc["classes"].pop()
    doc["characters"].pop()


def _move_identity_class_size(doc):
    # sizes still sum to |G|
    doc["classes"][1]["size"] += doc["classes"][0]["size"]
    doc["classes"][0]["size"] = 0


def _move_minus_one_indicator(doc):
    # keeps the sum rule: psi gains 2 * 2, linX and linY lose 2 * 1 each
    _char(doc, "psi")["indicator"] = 1
    _char(doc, "linX")["indicator"] = -1
    _char(doc, "linY")["indicator"] = -1


DOCUMENT_CORRUPTIONS = {
    "missing": lambda doc: doc.pop("classes"),
    "non-integer": lambda doc: doc["classes"][0].update(size="1"),
    "group order": lambda doc: doc.update(group_order=doc["group_order"] + 1),
    "rows": _drop_last_row_and_class,
    "partition": _move_identity_class_size,
    "degrees squared": lambda doc: _char(doc, "triv").update(degree=3),
    "one value per class": lambda doc: _char(doc, "psi")["values"].pop(),
    "1 + p^2": lambda doc: _char(doc, "linX").update(indicator=0),
    "degree-2 row": _move_minus_one_indicator,
}


def test_genuine_document_has_no_problem(tmp_path, capsys, table5):
    text = canonical_json(table_document(table5))
    store_cached_table(tmp_path, 5, text)
    assert load_cached_table(tmp_path, 5, text) is text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("expected", sorted(DOCUMENT_CORRUPTIONS))
def test_document_problem_found(tmp_path, capsys, expected):
    for fmt in ("json", "text", "csv"):
        assert_edit_rebuilt(tmp_path, capsys, 5, fmt, DOCUMENT_CORRUPTIONS[expected])
