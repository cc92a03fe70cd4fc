"""canonical_json against its oracle, json.dumps(indent=2), and the value codec."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from q8family.characters import character_table
from q8family.cyclotomic import Cyclotomic
from q8family.serialize import (canonical_json, report_document, scan_document,
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


class TestCyclotomicJson:
    @given(st.sampled_from([1, 3, 4, 5, 8, 12]), st.lists(coefficients, min_size=1, max_size=4))
    def test_round_trip(self, n, coeffs):
        v = Cyclotomic(n, coeffs)
        obj = v.to_json_obj()
        assert obj["coeffs"] == [[str(Fraction(c).numerator), str(Fraction(c).denominator)]
                                 for c in v.coeffs]
        back = Cyclotomic.from_json_obj(json.loads(canonical_json(obj)))
        assert back == v
        assert [type(c) for c in back.coeffs] == [type(c) for c in v.coeffs]

    def test_unit_denominator_loads_as_int(self):
        v = Cyclotomic.from_json_obj({"n": 5, "coeffs": [["-7", "1"], ["3", "2"]]})
        assert type(v.coeffs[0]) is int and v.coeffs[0] == -7
        assert v.coeffs[1] == Fraction(3, 2)
