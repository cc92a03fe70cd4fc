"""Benchmark of the q8family CLI: end-to-end timings, or per-layer traces.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  With --trace 0 every call is a fresh CLI child process,
one at a time, and the end-to-end metrics of BENCHMARK.json are reported.
With --trace 1 the same rounds run in this process through q8family.cli.main,
alternately untraced and traced, and the per-layer metrics are reported
(medians over traced rounds); the spans go to .perfbench/trace-*.json.
--workload all runs every workload in turn.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CheckError, require  # noqa: E402
from workloads import (ROUNDS, WORKLOADS, CallResult, Tally, make_rng,  # noqa: E402
                       run_round)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_CALLS = 3
CHILD_TIMEOUT_S = 120


class ChildRunner:
    """Each call is `python -m q8family ...` in a child process, timed by wall clock."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, argv):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "q8family", *argv], cwd=ROOT,
                              env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                return CallResult(None, out, err + "\ntimed out", time.perf_counter() - t0)
            except BaseException:
                proc.kill()  # leaving the with-block waits for it
                raise
        return CallResult(proc.returncode, out, err, time.perf_counter() - t0)


class InProcessRunner:
    """Each call is q8family.cli.main(argv) in this process, output captured."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return CallResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def repeat_for(seconds, step):
    """Call step(i) for i = 0, 1, ... while the next call is expected to end in time."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        step(i)
        i += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return i


def time_setup(runner):
    """Wall time of a CLI process that imports the package and does no work."""
    res = runner.run(["--help"])
    require(res.code == 0 and "usage" in res.stdout,
            f"`q8family --help` failed with exit code {res.code}")
    return res.seconds


def end_to_end(workload, seed, seconds, workdir):
    runner = ChildRunner()
    time_setup(runner)  # the first call also compiles the bytecode
    # set-up is timed a few times first, then once per round, so that its
    # median spans the same stretch of machine time as the calls
    setup = [time_setup(runner) for _ in range(SETUP_CALLS)]
    rng = make_rng(workload, seed)
    tally = Tally()

    def one_round(i):
        setup.append(time_setup(runner))
        rdir = workdir / f"round{i}"
        run_round(ROUNDS[workload](rng, str(rdir)), runner, tally)
        shutil.rmtree(rdir, ignore_errors=True)

    repeat_for(seconds, one_round)
    samples = {"setup_s": setup, "main_call_s": tally.samples["main"],
               "quick_call_s": tally.samples["quick"]}
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    for name, values in samples.items():
        if values:
            metrics[name] = statistics.median(values)
            print(f"{workload}: {name} is the median of {len(values)} calls")
    return tally, metrics, {}


def import_package():
    sys.path.insert(0, str(SRC))
    import q8family.cli
    origin = Path(q8family.cli.__file__).resolve()
    require(SRC in origin.parents, f"q8family imported from {origin}, not from {SRC}")
    return q8family.cli


def traced(workload, seed, seconds, workdir):
    from tracing import Tracer

    runner = InProcessRunner(import_package())
    tracer = Tracer()
    rng = make_rng(workload, seed)
    tally = Tally()
    rounds = []

    def one_pair(i):
        state = rng.getstate()
        timed = {}
        # alternate which pass goes first, so warm-up effects fall on both
        for pass_name in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            rng.setstate(state)
            rdir = workdir / f"round{i}-{pass_name}"
            calls = ROUNDS[workload](rng, str(rdir))
            mark = len(tracer.spans)
            t0 = time.perf_counter()
            if pass_name == "traced":
                with tracer:
                    run_round(calls, runner, tally)
            else:
                run_round(calls, runner, tally)
            timed[pass_name] = time.perf_counter() - t0
            shutil.rmtree(rdir, ignore_errors=True)
            if pass_name == "traced":
                layer = tracer.metrics_since(mark)
        layer["trace.traced_s"] = timed["traced"]
        layer["trace.untraced_s"] = timed["untraced"]
        layer["trace.overhead_s"] = timed["traced"] - timed["untraced"]
        rounds.append(layer)

    repeat_for(seconds, one_pair)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    record = {"workload": workload, "seed": seed, "rounds": rounds, "spans": tracer.dump()}
    return tally, metrics, record


def run_workload(workload, seed, seconds, trace, spec):
    """One workload: run, print a readable summary, return the result object."""
    workdir = OUT_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tally, values, record = (traced if trace else end_to_end)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs}
    if record:
        record["metrics"] = metrics
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(record) + "\n")
        print(f"{workload}: spans and per-round metrics written to {path.relative_to(ROOT)}")
    for problem, count in tally.problems.items():
        print(f"{workload}: {problem} (x{count})")
    if missing:
        tally.incorrect = True
        print(f"{workload}: no sample for {', '.join(missing)}")
    print(f"{workload}: {tally.attempted} calls attempted, {tally.failed} failed, "
          f"outputs {'correct' if not tally.incorrect else 'WRONG'}")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not tally.incorrect, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "q8family" / "cli.py").is_file():
        print(f"error: no q8family source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, seconds, args.trace, spec)
    except CheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process, so that peak RSS is per workload."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
