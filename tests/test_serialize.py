"""canonical_json against its oracle, json.dumps(indent=2), and the value codec."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q8family.characters import character_table
from q8family.cyclotomic import Cyclotomic, RootSum
from q8family.serialize import (canonical_json, document_values, load_cached_table,
                                report_document, scan_document, store_cached_table,
                                table_document)
from q8family.verify import scan_primes, verify_prime


class Tagged(int):
    """An int subclass with its own text, which json.dumps ignores."""

    def __repr__(self):
        return "tagged"

    __str__ = __repr__


def oracle(obj):
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


# Characters the string encoder must escape or spell out: quotes, backslash,
# control characters, DEL, non-ASCII, a line separator, an astral code point
# (a surrogate pair in the output) and a lone surrogate.
TRICKY = '"\\/\x00\x08\t\n\x1f\x7f \xe9 \U0001f600\ud800ab'
texts = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=12)
scalars = (st.none() | st.booleans() | texts
           | st.integers(min_value=-10**40, max_value=10**40)
           | st.floats(allow_nan=True, allow_infinity=True))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=40)


class TestMatchesJsonDumps:
    @given(json_values)
    def test_any_json_value(self, obj):
        assert canonical_json(obj) == oracle(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"a": {}}, [[], {}, ()], "", 0, -0.0,
        -(10**60), math.nan, -math.inf, {"nested": [{"x": [1, [2, [3]]]}]},
        [Tagged(7), True],
    ])
    def test_edge_values(self, obj):
        assert canonical_json(obj) == oracle(obj)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_table_documents(self, p):
        doc = table_document(character_table(p))
        assert canonical_json(doc) == oracle(doc)

    def test_verify_report_with_float_timings(self):
        doc = report_document(verify_prime(5, alt_subgroup=True))
        assert any(type(t) is float for t in doc["timings"].values())
        assert canonical_json(doc) == oracle(doc)

    def test_scan_document(self):
        doc = scan_document(3, 5, scan_primes(3, 5))
        assert canonical_json(doc) == oracle(doc)


class TestRejectsWhatJsonDumpsRejects:
    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), {1, 2}, [1, {"a": {2}}], {"v": Fraction(1, 3)}, object(),
    ])
    def test_non_json_value(self, obj):
        with pytest.raises(TypeError):
            oracle(obj)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json(obj)

    @pytest.mark.parametrize("key", [(1, 2), Fraction(1, 2), 1, -2.5, True, None,
                                     math.nan])
    def test_non_str_key_never_gets_other_bytes(self, key):
        obj = {"outer": {key: [1]}}
        try:
            text = canonical_json(obj)
        except TypeError:
            return
        assert text == oracle(obj)


coefficients = (st.integers(min_value=-10**30, max_value=10**30)
                | st.fractions(max_denominator=10**12))


def cyclotomic_from_json(obj):
    """The Cyclotomic a serialized value names, each coefficient read as a Fraction."""
    return Cyclotomic(obj["n"], [Fraction(int(num), int(den)) for num, den in obj["coeffs"]])


class TestCyclotomicJson:
    @given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.lists(coefficients, min_size=1, max_size=4))
    def test_round_trip(self, n, coeffs):
        v = Cyclotomic(n, coeffs)
        obj = v.to_json_obj()
        assert obj["coeffs"] == [[str(Fraction(c).numerator), str(Fraction(c).denominator)]
                                 for c in v.coeffs]
        back = cyclotomic_from_json(json.loads(canonical_json(obj)))
        assert back == v
        assert [type(c) for c in back.coeffs] == [type(c) for c in v.coeffs]

    def test_unit_denominator_loads_as_int(self):
        v = cyclotomic_from_json({"n": 5, "coeffs": [["-7", "1"], ["3", "2"]]})
        assert type(v.coeffs[0]) is int and v.coeffs[0] == -7
        assert v.coeffs[1] == Fraction(3, 2)


class TestRootSumJson:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_every_table_value_round_trips(self, p):
        for row in character_table(p).rows:
            for v in row.values:
                obj = json.loads(canonical_json(v.to_json_obj()))
                back = RootSum.from_json_obj(obj, p)
                assert back.p == p and back.counts[-1] == 0
                assert back == v and str(back) == str(v)
                assert back == cyclotomic_from_json(obj)

    def test_orders_one_and_p(self):
        seven = RootSum.from_json_obj({"n": 1, "coeffs": [["-7", "1"]]}, 5)
        assert seven.counts == (-7, 0, 0, 0, 0)
        coeffs = [["2", "1"], ["0", "1"], ["-1", "1"], ["3", "1"]]
        assert RootSum.from_json_obj({"n": 5, "coeffs": coeffs}, 5).counts == (2, 0, -1, 3, 0)

    REFUSED_AT_5 = {
        "order 7": {"n": 7, "coeffs": [["1", "1"]] * 6},
        "order 10": {"n": 10, "coeffs": [["1", "1"]] * 4},
        "order 5, 3 coefficients": {"n": 5, "coeffs": [["1", "1"]] * 3},
        "order 5, 5 coefficients": {"n": 5, "coeffs": [["1", "1"]] * 5},
        "order 1, 2 coefficients": {"n": 1, "coeffs": [["1", "1"]] * 2},
        "denominator 2": {"n": 1, "coeffs": [["8", "2"]]},
        "denominator 0": {"n": 1, "coeffs": [["1", "0"]]},
        "three strings": {"n": 1, "coeffs": [["1", "1", "1"]]},
        "one string": {"n": 1, "coeffs": ["11"]},
        "int numerator": {"n": 1, "coeffs": [[1, "1"]]},
        "int denominator": {"n": 1, "coeffs": [["1", 1]]},
        "a string": "1",
        "a list": [["1", "1"]],
        "no coeffs": {"n": 1},
        "no order": {"coeffs": [["1", "1"]]},
        "coeffs a string": {"n": 1, "coeffs": "1"},
        "coeffs an object": {"n": 1, "coeffs": {"1": "1"}},
        "one-string pair": {"n": 1, "coeffs": [["1"]]},
        "null pair": {"n": 1, "coeffs": [None]},
        "list numerator": {"n": 1, "coeffs": [[["1"], "1"]]},
        **{f"numerator {num!r}": {"n": 1, "coeffs": [[num, "1"]]}
           for num in ("1.5", "0x1", "", " 1", "+1", "01", "-0", "1_0")},
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_AT_5))
    def test_anything_else_is_refused(self, case):
        with pytest.raises(ValueError):
            RootSum.from_json_obj(self.REFUSED_AT_5[case], 5)


class TestDocumentValues:
    def test_round_trip_of_a_table(self, table5):
        assert document_values(table_document(table5)) == [list(r.values) for r in table5.rows]

    def test_value_of_a_foreign_order_is_refused(self, table5):
        doc = json.loads(json.dumps(table_document(table5)))
        doc["characters"][-1]["values"][0] = {"n": 7, "coeffs": [["1", "1"]]}
        with pytest.raises(ValueError, match="order other than 1 or p"):
            document_values(doc)

    def test_parsed_hit_is_the_document_and_its_values(self, tmp_path, table5):
        doc = table_document(table5)
        store_cached_table(tmp_path, 5, canonical_json(doc))
        assert load_cached_table(tmp_path, 5) == (doc, document_values(doc))
