"""canonical_json against its oracle, json.dumps(indent=2), the value codec and the cache check."""

import json
import math
import os
import tempfile
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
    return json.dumps(obj, indent=2, ensure_ascii=True, default=RootSum.to_json_obj) + "\n"


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

    def test_one_value_many_times_at_many_depths(self):
        # the memo of value texts is keyed by indentation too: the same
        # RootSum is written with a different indent at each depth
        v, w = RootSum(5, [3, 0, -1, 2, 0]), RootSum(5, [4, 1, 1, 1, 1])
        same_as_v = RootSum(5, [4, 1, 0, 3, 1])
        doc = {"values": [v] * 7 + [w, same_as_v, v],
               "nested": [[v, [v, {"deeper": v}]], (w, w)], "top": v}
        assert canonical_json(doc) == oracle(doc)
        assert canonical_json(v) == oracle(v)

    def test_verify_report_with_float_timings(self):
        doc = report_document(verify_prime(5, alt_subgroup=True))
        assert any(type(t) is float for t in doc["timings"].values())
        assert canonical_json(doc) == oracle(doc)

    def test_scan_document(self):
        doc = scan_document(3, 5, scan_primes(3, 5))
        assert canonical_json(doc) == oracle(doc)


REPORT_KEYS = [
    "format", "kind", "prime", "label", "orbit_rep", "group_order", "class_count",
    "degree_multiset", "indicator_list", "row_names", "stabilizer_size", "induced_norm",
    "indicator_induced", "indicator_induced_direct", "indicator_psi",
    "indicator_psi_direct", "psi_multiplicity", "decomposition", "indicator_breakdown",
    "claims", "checks", "square_locus_size", "overall_pass", "timings",
]


@pytest.mark.parametrize("alt", [False, True])
def test_report_document_keys_and_fractions(alt):
    doc = report_document(verify_prime(3, alt_subgroup=alt))
    assert list(doc) == REPORT_KEYS + ["alt_subgroup"] * alt
    assert doc["label"] == [0, 1] and doc["induced_norm"] == ["1", "1"]
    breakdown = doc["indicator_breakdown"]
    assert (breakdown["restriction_inner"], breakdown["numerator"]) == (["0", "1"], ["72", "1"])


class TestRejectsWhatJsonDumpsRejects:
    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), {1, 2}, [1, {"a": {2}}], {"v": Fraction(1, 3)}, object(),
    ])
    def test_non_json_value(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj)
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


def cyclotomic_from_json(obj, p):
    """The Cyclotomic at p a serialized value names, each [num, "1"] coefficient read as an int."""
    assert obj["n"] in (1, p) and all(den == "1" for _, den in obj["coeffs"])
    return Cyclotomic(p, [int(num) for num, _ in obj["coeffs"]])


def refused_at_5(directory, cell, text5):
    """Whether a p=5 cache file whose last cell is written as cell is refused.

    Every other byte of the file is the genuine document's, text5.
    """
    doc = json.loads(text5)
    doc["characters"][-1]["values"][-1] = cell
    store_cached_table(directory, 5, canonical_json(doc))
    return load_cached_table(directory, 5, text5) is None


@pytest.fixture(scope="module")
def text5(table5):
    return canonical_json(table_document(table5))


class TestRootSumJson:
    """How a value is written, and that a cache file spelling it any other way is refused."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_every_table_value_round_trips(self, p):
        for row in character_table(p).rows:
            for v in row.values:
                back = cyclotomic_from_json(json.loads(canonical_json(v.to_json_obj())), p)
                assert back == v and str(back) == str(v)

    def test_orders_one_and_p(self):
        assert RootSum(5, [-7, 0, 0, 0, 0]).to_json_obj() == {"n": 1, "coeffs": [["-7", "1"]]}
        assert RootSum(5, [3, 1, 0, 4, 1]).to_json_obj() == {
            "n": 5, "coeffs": [["2", "1"], ["0", "1"], ["-1", "1"], ["3", "1"]]}

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
        "order 5, only a constant": {"n": 5, "coeffs": [["3", "1"]] + [["0", "1"]] * 3},
        "order 5, all zero": {"n": 5, "coeffs": [["0", "1"]] * 4},
        "order true": {"n": True, "coeffs": [["1", "1"]]},
        "order 1.0": {"n": 1.0, "coeffs": [["1", "1"]]},
        "order a string": {"n": "1", "coeffs": [["1", "1"]]},
        "an extra key": {"n": 1, "coeffs": [["1", "1"]], "den": "1"},
        "one-string pair": {"n": 1, "coeffs": [["1"]]},
        "null pair": {"n": 1, "coeffs": [None]},
        "list numerator": {"n": 1, "coeffs": [[["1"], "1"]]},
        **{f"numerator {num!r}": {"n": 1, "coeffs": [[num, "1"]]}
           for num in ("1.5", "0x1", "", " 1", "+1", "01", "-0", "1_0")},
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_AT_5))
    def test_anything_else_is_refused(self, tmp_path, capsys, text5, case):
        assert refused_at_5(tmp_path, self.REFUSED_AT_5[case], text5)
        assert capsys.readouterr().err.startswith("cache rejected: ")

    @staticmethod
    def near_miss(obj, edits, order, wrong_pair):
        """A copy of the serialized value obj with each of edits made."""
        obj = {"n": obj["n"], "coeffs": [list(pair) for pair in obj["coeffs"]]}
        for edit in edits:
            if edit == "order":
                obj["n"] = order
            elif edit == "zeros past the first":
                obj["coeffs"][1:] = [["0", "1"]] * (len(obj["coeffs"]) - 1)
            elif edit == "pad to 4 coefficients":
                obj["coeffs"] += [["0", "1"]] * (4 - len(obj["coeffs"]))
            elif edit == "wrong pair":
                obj["coeffs"][0] = wrong_pair
            elif edit == "extra key":
                obj["den"] = "1"
        return obj

    @given(st.lists(st.sampled_from(["order", "zeros past the first", "pad to 4 coefficients",
                                     "wrong pair", "extra key"]), max_size=2),
           st.sampled_from([1, 5, 7, True, 1.0, 5.0, "5", None]),
           st.sampled_from([["+1", "1"], ["1", "2"], [1, "1"], ["1"], "11", ["1", "1", "1"]]))
    def test_everything_accepted_writes_back_as_it_was(self, text5, edits, order, wrong_pair):
        # the last cell of the p=5 table, {"n": 1, "coeffs": [["3", "1"]]}; some edits keep it
        genuine = json.loads(text5)["characters"][-1]["values"][-1]
        cell = self.near_miss(genuine, edits, order, wrong_pair)
        with tempfile.TemporaryDirectory() as directory:
            refused = refused_at_5(directory, cell, text5)
        assert refused == (json.dumps(cell) != json.dumps(genuine))

    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_every_root_sum_round_trips(self, counts):
        v = RootSum(5, counts)
        assert cyclotomic_from_json(json.loads(canonical_json(v)), 5) == v


class TestDocumentValues:
    def test_round_trip_of_a_table(self, table5):
        doc = table_document(table5)
        assert document_values(doc) == [list(r.values) for r in table5.rows]
        assert document_values(json.loads(canonical_json(doc))) == [
            [v.to_json_obj() for v in r.values] for r in table5.rows]

    def test_value_of_a_foreign_order_is_refused(self, tmp_path, capsys, text5):
        assert refused_at_5(tmp_path, {"n": 7, "coeffs": [["1", "1"]]}, text5)
        assert capsys.readouterr().err.startswith("cache rejected: ")

    # each is equal in Python, as JSON, to the valid first cell {"n": 1, "coeffs": [["1", "1"]]},
    # or reads the same through tuple(), and must not be served as that cell's value
    @pytest.mark.parametrize("later", [
        {"n": True, "coeffs": [["1", "1"]]},
        {"n": 1.0, "coeffs": [["1", "1"]]},
        {"n": 1, "coeffs": ["11"]},
        {"n": 1, "coeffs": [["1", ["1"]]]},
    ], ids=["true", "float", "string", "nested-list"])
    def test_a_later_cell_equal_to_a_valid_one_in_python_is_still_refused(
            self, tmp_path, capsys, text5, later):
        assert json.loads(text5)["characters"][0]["values"][0] == {"n": 1, "coeffs": [["1", "1"]]}
        assert refused_at_5(tmp_path, later, text5)
        assert capsys.readouterr().err.startswith("cache rejected: ")

    def test_the_first_bad_cell_in_document_order_is_reported(self, tmp_path, capsys, text5):
        doc = json.loads(text5)
        rows = doc["characters"]
        rows[1]["values"][2] = {"n": 7, "coeffs": [["1", "1"]]}
        rows[3]["values"][0] = {"n": True, "coeffs": [["1", "1"]]}
        edited = canonical_json(doc)
        store_cached_table(tmp_path, 5, edited)
        assert load_cached_table(tmp_path, 5, text5) is None
        at = len(os.path.commonprefix((edited, text5)))
        # inside row 1, before row 2 starts
        assert text5.index(f'"name": "{rows[1]["name"]}"') < at < text5.index(
            f'"name": "{rows[2]["name"]}"')
        path = tmp_path / "table_p5.json"
        assert capsys.readouterr().err == (
            f"cache rejected: {path}: differs from the table at character {at}\n")

    def test_miss_is_none(self, tmp_path, text5):
        assert load_cached_table(tmp_path, 5, text5) is None
