"""Tests of the benchmark itself: every check rejects a mutated output.

    python3 -m pytest perfbench -q

Real outputs come from the q8family CLI at small primes; each test mutates
one thing and expects the check to raise CheckError.
"""

import json
from fractions import Fraction

import pytest

from checks import (SELFTEST_TIMED_CHECKS, CheckError, check_report, check_scan,
                    check_selftest, check_table_csv, check_table_doc, check_table_text,
                    field_for_order, json_value, parse_value, tamper_table)
from run import ChildRunner, InProcessRunner, import_package
from tracing import Tracer
from workloads import (Call, CallResult, Tally, _check_tampered_read, _check_warm,
                       run_round)

P = 5
LABEL = (1, 2)
TABLE_P = 7  # the smallest prime whose table has irrational values
SELFTEST_P = 7  # within FULL_ORACLE_PRIME_LIMIT: the oracle covers all 6 rows


@pytest.fixture(scope="module")
def outputs():
    runner = ChildRunner()

    def call(*argv):
        res = runner.run(list(argv))
        assert res.code == 0, res.stderr
        return res.stdout

    return {
        "report": call("verify", "--prime", str(P), "--label", "1,2", "--format", "json"),
        "scan": call("scan", "--primes", "2..8", "--format", "json"),
        "json": call("table", "--prime", str(TABLE_P), "--format", "json"),
        "text": call("table", "--prime", str(TABLE_P), "--format", "text"),
        "csv": call("table", "--prime", str(TABLE_P), "--format", "csv"),
        "selftest": call("selftest", "--prime", str(SELFTEST_P)),
    }


def _set(path, value):
    def mutate(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value
    return mutate


REPORT_MUTATIONS = {
    "flipped claim": _set(["claims", "indicator_one"], False),
    "overall fail": _set(["overall_pass"], False),
    "wrong class count": _set(["class_count"], lambda c: c + 1),
    "wrong group order": _set(["group_order"], lambda g: g + 8),
    "wrong label": _set(["label"], [2, 1]),
    "degree 8 -> 4": _set(["degree_multiset", -1], 4),
    "second -1 indicator": _set(["indicator_list", 0], -1),
    "psi indicator +1": _set(["indicator_list", 4], 1),
    "norm 2": _set(["induced_norm"], ["2", "1"]),
    "stabilizer 2": _set(["stabilizer_size"], 2),
    "square locus": _set(["square_locus_size"], lambda s: s + 1),
    "psi multiplicity 0": _set(["psi_multiplicity"], 0),
    "decomposition weight": _set(["decomposition", "triv"], 2),
    "chi indicator 0": _set(["indicator_induced"], 0),
}


def test_report_accepts_real_output(outputs):
    check_report(json.loads(outputs["report"]), P, LABEL)


@pytest.mark.parametrize("name", REPORT_MUTATIONS)
def test_report_rejects_mutation(outputs, name):
    doc = json.loads(outputs["report"])
    REPORT_MUTATIONS[name](doc)
    with pytest.raises(CheckError):
        check_report(doc, P, LABEL)


SCAN_MUTATIONS = {
    "record dropped": lambda d: d["records"].pop(),
    "extra prime": lambda d: d["records"].append(dict(d["records"][-1], prime=9)),
    "labels_checked": _set(["records", 1, "labels_checked"], 2),
    "record fails": _set(["records", 0, "pass"], False),
    "all_pass false": _set(["all_pass"], False),
    "multiplicity 0": _set(["records", 2, "psi_multiplicities", 0], 0),
    "group order": _set(["records", 0, "group_order"], 64),
}


def test_scan_accepts_real_output(outputs):
    assert check_scan(json.loads(outputs["scan"]), 2, 8) == 1 + 3 + 6


@pytest.mark.parametrize("name", SCAN_MUTATIONS)
def test_scan_rejects_mutation(outputs, name):
    doc = json.loads(outputs["scan"])
    SCAN_MUTATIONS[name](doc)
    with pytest.raises(CheckError):
        check_scan(doc, 2, 8)


def _bump_coeff(row, cls, i):
    def mutate(doc):
        coeff = doc["characters"][row]["values"][cls]["coeffs"][i]
        coeff[0] = str(int(coeff[0]) + 1)
    return mutate


def _induced_core_class(doc):
    """Index of a class inside V where an induced row has an irrational value."""
    return next(k for k, v in enumerate(doc["characters"][-1]["values"]) if v["n"] > 1)


TABLE_MUTATIONS = {
    "swapped class sizes": lambda d: d["classes"].insert(1, d["classes"].pop(-1)),
    "centralizer": _set(["classes", 1, "centralizer"], lambda c: c + 1),
    "degree": _set(["characters", 0, "degree"], 2),
    "indicator flipped": _set(["characters", 4, "indicator"], 1),
    "row dropped": lambda d: d["characters"].pop(),
    "value at identity": _bump_coeff(5, 0, 0),
    "rational value": _bump_coeff(4, 2, 0),
    "tampered like the cache fault": lambda d: d.update(tamper_table(d)),
}


def test_table_accepts_real_output(outputs):
    check_table_doc(json.loads(outputs["json"]), TABLE_P)


@pytest.mark.parametrize("name", TABLE_MUTATIONS)
def test_table_rejects_mutation(outputs, name):
    doc = json.loads(outputs["json"])
    TABLE_MUTATIONS[name](doc)
    with pytest.raises(CheckError):
        check_table_doc(doc, TABLE_P)


@pytest.mark.parametrize("coeff", [0, 1, 3])
def test_orthonormality_catches_one_cyclotomic_coefficient(outputs, coeff):
    doc = json.loads(outputs["json"])
    _bump_coeff(len(doc["characters"]) - 1, _induced_core_class(doc), coeff)(doc)
    with pytest.raises(CheckError, match="orthonormal|orthogonality"):
        check_table_doc(doc, TABLE_P)


def test_field_for_order_gives_primitive_root():
    for n in (1, 5, 17, 12):
        ell, w = field_for_order(n)
        assert (ell - 1) % n == 0 and pow(w, n, ell) == 1
        assert all(pow(w, d, ell) != 1 for d in range(1, n))


def test_warm_json_must_match_byte_for_byte(outputs):
    state = {"cold": outputs["json"]}
    _check_warm(CallResult(0, outputs["json"], "", 0.0), state, "json")
    with pytest.raises(CheckError):
        _check_warm(CallResult(0, outputs["json"].replace("2", "3", 1), "", 0.0), state, "json")


def test_text_and_csv_accept_real_output(outputs):
    doc = json.loads(outputs["json"])
    check_table_text(outputs["text"], doc)
    check_table_csv(outputs["csv"], doc)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("mutation", ["renamed", "dropped", "indicator", "value", "size"])
def test_text_and_csv_reject_mutation(outputs, fmt, mutation):
    doc = json.loads(outputs["json"])
    lines = outputs[fmt].splitlines()
    if mutation == "renamed":
        lines[-1] = lines[-1].replace("ind_", "idx_", 1)
    elif mutation == "dropped":
        del lines[-1]
    elif mutation == "indicator":
        lines[-1] = lines[-1].replace("fs=+1", "fs=-1") if fmt == "text" else \
            lines[-1].replace(",8,1,", ",8,-1,", 1)
    elif mutation == "value":
        assert "3*z7^2" in lines[-1]
        lines[-1] = lines[-1].replace("3*z7^2", "4*z7^2", 1)
    else:
        lines[2] = lines[2].replace(" 49", " 48") if fmt == "text" else \
            lines[2].replace(",49,", ",48,")
    mutated = "\n".join(lines) + "\n"
    assert mutated != outputs[fmt]
    check = check_table_text if fmt == "text" else check_table_csv
    with pytest.raises(CheckError):
        check(mutated, doc)


@pytest.mark.parametrize("cell, want", [
    ("3", (1, {0: 3})),
    ("-1/2", (1, {0: Fraction(-1, 2)})),
    ("0", (1, {})),
    ("z17", (17, {1: 1})),
    ("-z17^5", (17, {5: -1})),
    ("1 + 2*z7^2 - z7^3 - 3/4*z7^5", (7, {0: 1, 2: 2, 3: -1, 5: Fraction(-3, 4)})),
])
def test_parse_value(cell, want):
    assert parse_value(cell) == want


@pytest.mark.parametrize("cell", ["1 + x", "z7 + z5", "z7 + z7", "2 *z7", ""])
def test_parse_value_rejects_garbage(cell):
    with pytest.raises(CheckError):
        parse_value(cell)


def test_every_csv_value_matches_the_json(outputs):
    doc = json.loads(outputs["json"])
    rows = [ln.split(",")[3:] for ln in outputs["csv"].splitlines()[4:]]
    assert [[parse_value(c) for c in r] for r in rows] == \
        [[json_value(v) for v in ch["values"]] for ch in doc["characters"]]


def test_selftest_accepts_real_output(outputs):
    check_selftest(outputs["selftest"], SELFTEST_P, 6)


def _drop_check(name):
    def mutate(text):
        lines = [ln for ln in text.splitlines() if ln.split()[1] != name]
        n = len(lines) - 1
        lines[-1] = f"selftest p={SELFTEST_P}: {n}/{n} checks passed"
        return "\n".join(lines) + "\n"
    return mutate


SELFTEST_MUTATIONS = {
    "fail line": lambda t: t.replace("ok  ", "FAIL", 1),
    "summary": lambda t: t.replace("checks passed", "checks passed, 1 skipped"),
    "wrong prime": lambda t: t.replace(f"p={SELFTEST_P}:", "p=5:"),
    "oracle on one row": lambda t: t.replace("on 6 row(s)", "on 1 row(s)"),
    **{f"{name} dropped": _drop_check(name) for name in SELFTEST_TIMED_CHECKS},
}


@pytest.mark.parametrize("mutation", SELFTEST_MUTATIONS)
def test_selftest_rejects_mutation(outputs, mutation):
    text = SELFTEST_MUTATIONS[mutation](outputs["selftest"])
    assert text != outputs["selftest"]
    with pytest.raises(CheckError):
        check_selftest(text, SELFTEST_P, 6)


def test_tampered_read_passes_only_on_rejection_or_true_table(outputs):
    genuine = outputs["json"]
    tampered = json.dumps(tamper_table(json.loads(genuine)), indent=2) + "\n"
    state = {"genuine": genuine}
    with pytest.raises(CheckError):
        _check_tampered_read(CallResult(0, tampered, "", 0.0), state)
    with pytest.raises(CheckError):
        _check_tampered_read(CallResult(1, "", "Traceback (most recent call last):", 0.0), state)
    _check_tampered_read(CallResult(0, genuine, "", 0.0), state)
    _check_tampered_read(CallResult(3, "", "internal invariant violation: ...", 0.0), state)


class FakeRunner:
    def __init__(self, results):
        self.results = list(results)

    def run(self, argv):
        return self.results.pop(0)


def _fail(res, st):
    raise CheckError("bad output")


def _malformed(res, st):
    return {}["size"]


def test_run_round_counts_failures_and_wrong_outputs():
    ok = CallResult(0, "", "", 0.5)
    calls = [Call(["a"], lambda r, s: None, "main"),
             Call(["b"], _fail, "quick", known_fault="known"),
             Call(["c"], lambda r, s: None),
             Call(["d"], _fail),
             Call(["e"], _malformed)]
    tally = Tally()
    run_round(calls, FakeRunner([ok, ok, CallResult(2, "", "usage", 0.1), ok, ok]), tally)
    assert (tally.attempted, tally.failed, tally.incorrect) == (5, 2, True)
    assert any("malformed output" in p for p in tally.problems)
    assert tally.samples == {"main": [0.5], "quick": []}


def test_verdict_of_failure_is_a_wrong_output_not_a_failed_call():
    verdict = CallResult(1, "{}", "", 0.5)
    calls = [Call(["verify"], _fail, "main"),
             Call(["verify"], lambda r, s: None, "main"),
             Call(["selftest"], _fail, "main"),
             Call(["table"], _fail, "main")]
    tally = Tally()
    run_round(calls, FakeRunner([verdict, verdict, CallResult(3, "", "invariant", 0.1),
                                 CallResult(1, "{}", "", 0.1)]), tally)
    assert (tally.attempted, tally.failed, tally.incorrect) == (4, 2, True)
    wrong = [p for p in tally.problems if p.startswith("WRONG OUTPUT")]
    assert len(wrong) == 2 and any("yet the output passes" in p for p in wrong)
    assert tally.samples == {"main": [], "quick": []}


def test_tracer_wraps_imported_names_and_restores_them():
    runner = InProcessRunner(import_package())
    import q8family.characters as characters
    import q8family.verify as verify
    original = verify.inner_product
    assert original is characters.inner_product
    tracer = Tracer()
    with tracer:
        assert verify.inner_product is not original
        assert runner.run(["verify", "--prime", "3", "--format", "json"]).code == 0
    assert verify.inner_product is original and characters.inner_product is original
    spans = tracer.spans
    assert any(name == "characters.inner_product" and spans[parent][0] == "verify.verify_label"
               for name, _, _, parent in spans), "verify's own inner_product was not wrapped"
    m = tracer.metrics_since(0)
    assert m["characters.inner_products"] == sum(s[0] == "characters.inner_product" for s in spans)
    assert m["cyclotomic.mul_calls"] > 0 and m["verify.labels"] == 1
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    root_total = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert self_total == pytest.approx(root_total)
