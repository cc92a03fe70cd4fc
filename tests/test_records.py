"""The record classes: what each promises about mutation, equality and rebuilding.

They are plain classes (or a NamedTuple), so the package never imports
`dataclasses`.  Tests tamper with them through `conftest.rebuilt`, which
makes a new object from the old one's constructor fields.
"""

from fractions import Fraction

import pytest

from conftest import rebuilt
from q8family.characters import character_table
from q8family.groups import ClassTable, QuaternionSubgroup, quaternion_subgroup
from q8family.modular import image_of
from q8family.selftest import CheckResult
from q8family.serialize import report_document
from q8family.verify import Report, verify_prime


@pytest.fixture(scope="module")
def table():
    return character_table(5)


def test_frozen_records_refuse_assignment(table):
    q = table.class_table.group.quaternion
    for obj, name in [(table.rows[0], "values"), (table.rows[0], "extra"), (table, "rows"),
                      (table, "certificate"), (q, "z"), (q, "class_of")]:
        before = getattr(obj, name, None)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        assert getattr(obj, name, None) is before


def test_rows_tables_and_class_tables_are_equal_only_to_themselves(table):
    ct = table.class_table
    for obj in (table.rows[0], table, ct):
        copy = rebuilt(obj)
        assert obj == obj and copy != obj and not copy == obj
        assert len({obj, copy}) == 2  # hashed by identity


def test_a_rebuilt_table_row_keeps_its_fields(table):
    row = table.rows[-1]
    copy = rebuilt(row, indicator=0)
    assert (copy.name, copy.values, copy.degree, copy.indicator) == (
        row.name, row.values, row.degree, 0)
    assert rebuilt(table).certificate == table.certificate


def test_quaternion_subgroup_equality_and_hash_ignore_class_of():
    # they read (p, x, y), from which z, elements and class_of are derived
    q = quaternion_subgroup(7)
    same = QuaternionSubgroup(7, q.x, q.y)
    assert same is not q and same == q and hash(same) == hash(q)
    swapped = rebuilt(q, x=q.y, y=q.x)  # Y and X satisfy the relations too
    assert swapped != q and set(swapped.elements) == set(q.elements)
    assert q != (q.p, q.x, q.y)
    assert quaternion_subgroup(7) == q and hash(quaternion_subgroup(7)) == hash(q)


def test_a_rebuilt_class_table_starts_with_no_image_and_an_empty_pool(table):
    ct = table.class_table
    image_of(ct, [r.values for r in table.rows])
    assert ct.modular_image is not None and ct.value_pool
    copy = rebuilt(ct)
    assert copy.modular_image is None and copy.value_pool == {}
    assert copy.sizes is ct.sizes and copy.square_map is ct.square_map
    assert isinstance(copy, ClassTable)


def test_report_names_its_fields_once_and_its_document_follows_them():
    report = verify_prime(5)
    names = list(Report.__slots__)
    doc = report_document(report)
    expected = names[:names.index("timings")] + ["overall_pass", "timings"]
    assert list(doc)[2:] == expected  # after "format" and "kind"; alt_subgroup unset
    report.alt_subgroup = {"pass": True}
    assert list(report_document(report))[2:] == expected + ["alt_subgroup"]


def test_report_equality_is_by_value_and_every_field_is_required():
    a, b = verify_prime(5), verify_prime(5)
    a.timings = b.timings = {}
    assert a == b
    b.induced_norm = Fraction(2)
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    fields = {name: getattr(a, name) for name in Report.__slots__}
    assert Report(**fields) == a
    del fields["checks"]
    with pytest.raises(TypeError, match="checks"):
        Report(**fields)
    with pytest.raises(TypeError, match="extra"):
        Report(**{name: getattr(a, name) for name in Report.__slots__}, extra=1)
    defaults = Report(**{name: getattr(a, name) for name in Report.__slots__[:-2]})
    assert defaults.timings == {} and defaults.alt_subgroup is None


def test_check_results_are_named_tuples():
    result = CheckResult("name", True, "detail")
    assert result == ("name", True, "detail") and result._fields == ("name", "ok", "detail")
    with pytest.raises(AttributeError):
        result.ok = False

