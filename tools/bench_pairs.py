"""Alternating pairs of benchmark runs, parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_21.json \\
        --workloads certify=10,scan=5,table-cache=5,selftest=5 --seconds 10

Run from the root of the repository.  Both sides run one harness, the
working tree's `perfbench/` and `BENCHMARK.json`, so a workload that the
change adds has a parent side too; only `src/` differs.  Each side is a
temporary directory holding the harness and a `src/`: the parent ref's
(through `git archive`) or the working tree's.  The working tree's files
are those git would commit (tracked, or untracked and not ignored).  For
each workload, pair i runs
`python3 perfbench/run.py --workload W --seconds S --seed N` once in each
directory with the same seed N = first seed + i, the parent first in odd
pairs and the change first in even ones, so that drift of the machine
falls on both sides.

The output file has the layout of BENCH_20.json: for each workload the
seeds, the calls attempted and failed on each side, whether every output
was correct, and for each end-to-end metric of BENCHMARK.json each side's
per-run values ("runs", in pair order), their median and quartiles
(inclusive method), the number of pairs whose change run reads lower,
the change of the medians in per cent, and whether a gain is shown: the
change reads better, in the direction of the metric's `better`, in at
least 9 of 10 pairs (ties count for neither side), and its median is
better than the parent's by more than the parent's interquartile range.
Standard library only.
"""

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ("perfbench", "BENCHMARK.json")


def summarize(runs):
    """Median and inclusive quartiles of one side's per-run values, to 4 places."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "quartiles": [round(q1, 4), round(q3, 4)],
            "runs": [round(x, 4) for x in runs]}


def compare(parent, change, unit, better):
    """One metric's entry: both sides' summaries, pairs where the change is lower, the move,
    and whether it shows a gain in the direction `better` ("lower" or "higher")."""
    a, b = summarize(parent), summarize(change)
    sign = {"lower": 1, "higher": -1}[better]
    pairs = list(zip(a["runs"], b["runs"]))
    better_pairs = sum(sign * (x - y) > 0 for x, y in pairs)
    q1, q3 = a["quartiles"]
    return {
        "unit": unit,
        "parent": a,
        "change": b,
        "change_lower_in_pairs": sum(y < x for x, y in pairs),
        "change_vs_parent": f"{(b['median'] / a['median'] - 1) * 100:+.1f}%",
        "gain_shown": (10 * better_pairs >= 9 * len(pairs)
                       and sign * (a["median"] - b["median"]) > q3 - q1),
    }


def workload_entry(seeds, results, metrics):
    """The entry of one workload from its runs: results[side] holds run.py's result objects."""
    return {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
        "correct": all(r["correct"] for rs in results.values() for r in rs),
        "metrics": {
            m["name"]: compare([r["metrics"][m["name"]]["value"] for r in results["parent"]],
                               [r["metrics"][m["name"]]["value"] for r in results["change"]],
                               m["unit"], m["better"])
            for m in metrics
        },
    }


def export_parent(ref, dest):
    """The parent ref's `src/`, and nothing else, into dest."""
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest, names):
    """The working tree's files under the given names, as git would commit them, into dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard", "--", *names],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(checkout, workload, seconds, seed):
    """One perfbench run in checkout; its last line of output, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--seed", str(seed)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {checkout} ({workload}, seed {seed}):\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def parse_workloads(text):
    """'certify=10,scan=5' -> {'certify': 10, 'scan': 5}."""
    out = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        out[name] = int(count)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="the file to write, e.g. BENCH_21.json")
    parser.add_argument("--workloads", default="certify=10,scan=5,table-cache=5,selftest=5",
                        help="workload=pairs, comma-separated (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--what", default="", help="what the change is, for the file")
    args = parser.parse_args(argv)
    workloads = parse_workloads(args.workloads)
    if min(workloads.values()) < 2:
        parser.error("quartiles need at least 2 pairs per workload")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    doc = {
        "what": (f"End-to-end metrics of BENCHMARK.json: parent commit {commit} against "
                 f"this change{f' ({args.what})' if args.what else ''}, from "
                 "perfbench/run.py with tracing off."),
        "machine": (f"{os.cpu_count()}-core, {platform.system()}, "
                    f"{platform.python_implementation()} {platform.python_version()}; "
                    "both sides run the working tree's perfbench/ and BENCHMARK.json, "
                    "each on its own src/"),
        "commands": {"all_workloads": "python3 tools/bench_pairs.py " + shlex.join(
            argv if argv is not None else sys.argv[1:])},
        "statistics": ("median and quartiles (inclusive method) of each side's per-run "
                       "medians; change_lower_in_pairs counts the pairs whose change run "
                       "reads lower; gain_shown is true when the change reads better in "
                       "at least 9/10 of the pairs and the medians differ in its favour "
                       "by more than the parent's interquartile range"),
        "all_workloads": {},
    }
    seed = args.first_seed
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        export_parent(args.parent, sides["parent"])
        export_working_tree(sides["parent"], HARNESS)
        export_working_tree(sides["change"], ("src", *HARNESS))
        for workload, pairs in workloads.items():
            seeds = list(range(seed, seed + pairs))
            seed += pairs
            results = {"parent": [], "change": []}
            for i, s in enumerate(seeds, 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    results[side].append(run_once(sides[side], workload, args.seconds, s))
                    print(f"{workload} seed {s} {side}: "
                          f"main_call_s {results[side][-1]['metrics']['main_call_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
            doc["all_workloads"][workload] = workload_entry(seeds, results, spec["end_to_end"])
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
