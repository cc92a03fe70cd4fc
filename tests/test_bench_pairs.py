"""The statistics of `tools/bench_pairs.py`, on fixed numbers, without running the benchmark.

The numbers are BENCH_20.json's certify runs, whose summary was written
by hand; the tool must give the same.  Whether a gain is shown is read
from the runs of the BENCH files in the repository.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [0.0994, 0.1067, 0.1057, 0.1311, 0.1105]
CHANGE = [0.104, 0.1328, 0.1053, 0.1104, 0.1256]


def test_summary_is_median_and_inclusive_quartiles():
    assert bench_pairs.summarize(PARENT) == {
        "median": 0.1067, "quartiles": [0.1057, 0.1105], "runs": PARENT}
    assert bench_pairs.summarize([1, 2, 3, 4]) == {
        "median": 2.5, "quartiles": [1.75, 3.25], "runs": [1, 2, 3, 4]}


def test_comparison_counts_pairs_in_order_and_the_move_of_the_medians():
    entry = bench_pairs.compare(PARENT, CHANGE, "s", "lower")
    assert entry["unit"] == "s"
    assert entry["change"]["median"] == 0.1104 and entry["change"]["quartiles"] == [0.1053, 0.1256]
    assert entry["change_lower_in_pairs"] == 2
    assert entry["change_vs_parent"] == "+3.5%"
    assert bench_pairs.compare([2, 2, 2], [1, 1, 3], "s", "lower")["change_vs_parent"] == "-50.0%"


@pytest.mark.parametrize("bench, workload, shown", [
    ("BENCH_21.json", "certify", True),       # 10/10 pairs lower, -18.3 %
    ("BENCH_26.json", "table-cache", True),   # 9/10 pairs lower, -21.9 %
    ("BENCH_20.json", "certify", False),      # 2/5 pairs lower, +2.3 %
])
def test_gain_shown_on_recorded_main_call_runs(bench, workload, shown):
    entry = json.loads((ROOT / bench).read_text())["all_workloads"][workload]
    runs = entry["metrics"]["main_call_s"]
    got = bench_pairs.compare(runs["parent"]["runs"], runs["change"]["runs"], "s", "lower")
    assert got["change_lower_in_pairs"] == runs["change_lower_in_pairs"]
    assert got["gain_shown"] is shown


def test_gain_shown_follows_the_direction_ties_and_the_parent_spread():
    assert bench_pairs.compare([1, 1, 1], [2, 2, 2], "MB", "higher")["gain_shown"] is True
    assert bench_pairs.compare([1, 1, 1], [2, 2, 2], "MB", "lower")["gain_shown"] is False
    # a tie counts for neither side: 9 of 10 pairs lower is enough, 8 is not
    assert bench_pairs.compare([2] * 10, [1] * 9 + [2], "s", "lower")["gain_shown"] is True
    assert bench_pairs.compare([2] * 10, [1] * 8 + [2, 2], "s", "lower")["gain_shown"] is False
    # every pair lower, but by less than the parent's interquartile range
    assert bench_pairs.compare([1, 2, 3, 4], [0.9, 1.9, 2.9, 3.9], "s", "lower")[
        "gain_shown"] is False


def test_workload_entry_sums_calls_and_reads_every_metric():
    def result(value, attempted, failed=0, correct=True):
        return {"attempted": attempted, "failed": failed, "correct": correct,
                "metrics": {"main_call_s": {"value": value, "unit": "s"}}}

    metrics = [{"name": "main_call_s", "unit": "s", "better": "lower"}]
    results = {"parent": [result(0.3, 10), result(0.2, 11), result(0.4, 9, 1)],
               "change": [result(0.1, 12), result(0.3, 12), result(0.2, 12, 0, False)]}
    entry = bench_pairs.workload_entry([5, 6, 7], results, metrics)
    assert entry["pairs"] == 3 and entry["seeds"] == [5, 6, 7]
    assert entry["attempted"] == {"parent": 30, "change": 36}
    assert entry["failed"] == {"parent": 1, "change": 0}
    assert entry["correct"] is False
    main = entry["metrics"]["main_call_s"]
    assert main["parent"]["runs"] == [0.3, 0.2, 0.4] and main["change_lower_in_pairs"] == 2


@pytest.mark.parametrize("text, parsed", [("certify=10", {"certify": 10}),
                                          ("scan=5,table-cache=3", {"scan": 5, "table-cache": 3})])
def test_workload_list(text, parsed):
    assert bench_pairs.parse_workloads(text) == parsed
