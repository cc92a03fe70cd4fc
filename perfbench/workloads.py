"""The benchmark's workloads: rounds of q8family CLI calls built from a seed.

A round is a fixed list of calls; every run of a workload repeats whole
rounds, so the share of failed calls is the same in every run.  Each call
names the metric its wall time feeds: "main" for the workload's headline
call, "quick" for its cheap companion (a small prime, or a cache hit), or
None for calls that only set up another.

    certify      verify --prime 17 (main) and 3 x verify --prime 5 (quick)
    scan         scan --primes 3..13 (main) and 2 x scan --primes 3..7 (quick)
    table-cache  cold table --prime 17 (main), 6 warm hits in json, text and
                 csv (quick), a cold p=5 table and a read of its cache file
                 after tampering (the known fault)
    selftest     selftest --prime 13 (main) and --prime 7 (quick)

A call that exits 1 (verify, scan) or 3 (selftest) with output has given
the program's own verdict that a check failed: its output is still
checked, and it counts as a wrong output, not as a failed call.

The seed draws the labels, the spelling of the scan ranges (the primes in
them stay the same), and the order of the warm formats and selftest calls.
"""

import json
import os
import random
from dataclasses import dataclass, field

from checks import (CheckError, check_report, check_scan, check_selftest,
                    check_table_csv, check_table_doc, check_table_text,
                    parse_json, require, tamper_table)

WORKLOADS = ("certify", "scan", "table-cache", "selftest")

CERTIFY_PRIME = 17
CERTIFY_QUICK_PRIME = 5
CERTIFY_QUICK_CALLS = 3
TABLE_PRIME = 17
TAMPER_PRIME = 5
WARM_FORMATS = ("json", "text", "csv") * 2
# selftest prime -> induced rows its averaging oracle covers: all of them up
# to selftest.FULL_ORACLE_PRIME_LIMIT (7), one above it
SELFTEST_ORACLE_ROWS = {7: 6, 13: 1}

# exit codes by which a command reports a failed verification, with its output
VERDICT_CODES = {"verify": (1,), "scan": (1,), "selftest": (3,)}

TAMPER_FAULT = ("table --cache printed a tampered cache file (psi indicator "
                "flipped, one value set to 7) and exited 0")


@dataclass
class Call:
    """One CLI invocation within a round and the check of its output."""

    argv: list
    check: object            # (CallResult, state dict) -> None; raises CheckError
    metric: str | None = None
    prepare: object = None   # (state dict) -> None, run before the call
    known_fault: str | None = None

    def is_verdict(self, res):
        """Whether res is the program's own verdict of failure, output and all."""
        return (res.code in VERDICT_CODES.get(self.argv[0], ())
                and bool(res.stdout.strip()))


@dataclass
class CallResult:
    code: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Tally:
    """Calls attempted, failed and checked wrong, plus timing samples by metric."""

    attempted: int = 0
    failed: int = 0
    problems: dict = field(default_factory=dict)
    incorrect: bool = False
    samples: dict = field(default_factory=lambda: {"main": [], "quick": []})

    def note(self, kind, text):
        key = f"{kind}: {text}"
        self.problems[key] = self.problems.get(key, 0) + 1


def _exit_ok(res):
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    require(res.code == 0, f"exit code {res.code}: {tail[0]}")


def _label_arg(label):
    return f"{label[0]},{label[1]}"


def _random_label(rng, p):
    k = rng.randrange(1, p * p)
    return (k // p, k % p)


def certify_round(rng, workdir):
    calls = []
    for p, metric in ([(CERTIFY_PRIME, "main")]
                      + [(CERTIFY_QUICK_PRIME, "quick")] * CERTIFY_QUICK_CALLS):
        label = _random_label(rng, p)
        calls.append(Call(
            ["verify", "--prime", str(p), "--label", _label_arg(label), "--format", "json"],
            lambda res, st, p=p, label=label: check_report(parse_json(res.stdout), p, label),
            metric))
    return calls


def scan_round(rng, workdir):
    # Ranges are spelled differently from seed to seed but hold the same primes.
    main = (rng.choice((1, 2, 3)), rng.choice((13, 14, 15, 16)))
    quick = [(rng.choice((1, 2, 3)), rng.choice((7, 8, 9, 10))) for _ in range(2)]
    return [
        Call(["scan", "--primes", f"{lo}..{hi}", "--format", "json"],
             lambda res, st, lo=lo, hi=hi: check_scan(parse_json(res.stdout), lo, hi),
             metric)
        for (lo, hi), metric in [(main, "main")] + [(q, "quick") for q in quick]
    ]


def _check_cold(res, st, p, key):
    check_table_doc(parse_json(res.stdout), p)
    st[key] = res.stdout


def _check_warm(res, st, fmt):
    cold = st.get("cold")
    require(cold is not None, "no cold table to compare the cache hit with")
    if fmt == "json":
        require(res.stdout == cold, "warm JSON differs from the cold JSON")
    elif fmt == "text":
        check_table_text(res.stdout, json.loads(cold))
    else:
        check_table_csv(res.stdout, json.loads(cold))


def _tamper(cache_dir, st):
    genuine = st.get("genuine")
    require(genuine is not None, "no genuine table to tamper with")
    files = os.listdir(cache_dir)
    require(len(files) == 1, f"expected one cache file, found {files}")
    with open(os.path.join(cache_dir, files[0]), "w") as fh:
        json.dump(tamper_table(json.loads(genuine)), fh, indent=2)
        fh.write("\n")


def _check_tampered_read(res, st):
    """Pass when the CLI rejects the file or prints the true table again."""
    if res.code == 0:
        require(res.stdout == st.get("genuine"), TAMPER_FAULT)
    else:
        require("Traceback" not in res.stderr, "crashed on the tampered cache file")


def table_cache_round(rng, workdir):
    cache, tamper_cache = os.path.join(workdir, "cache"), os.path.join(workdir, "tamper")
    formats = list(WARM_FORMATS)
    rng.shuffle(formats)
    table = ["table", "--prime", str(TABLE_PRIME), "--cache", cache, "--format"]
    small = ["table", "--prime", str(TAMPER_PRIME), "--cache", tamper_cache,
             "--format", "json"]
    return (
        [Call(table + ["json"], lambda res, st: _check_cold(res, st, TABLE_PRIME, "cold"),
              "main")]
        + [Call(table + [fmt], lambda res, st, fmt=fmt: _check_warm(res, st, fmt), "quick")
           for fmt in formats]
        + [Call(small, lambda res, st: _check_cold(res, st, TAMPER_PRIME, "genuine")),
           Call(small, _check_tampered_read,
                prepare=lambda st: _tamper(tamper_cache, st), known_fault=TAMPER_FAULT)]
    )


def selftest_round(rng, workdir):
    order = sorted(SELFTEST_ORACLE_ROWS)
    rng.shuffle(order)
    return [
        Call(["selftest", "--prime", str(p)],
             lambda res, st, p=p: check_selftest(res.stdout, p, SELFTEST_ORACLE_ROWS[p]),
             "main" if p == max(SELFTEST_ORACLE_ROWS) else "quick")
        for p in order
    ]


ROUNDS = {
    "certify": certify_round,
    "scan": scan_round,
    "table-cache": table_cache_round,
    "selftest": selftest_round,
}


def make_rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def run_round(calls, runner, tally):
    """Run one round's calls in order, checking each output into the tally.

    A call fails when it crashes, times out or exits non-zero without a
    verdict, or, for the known fault, when its check rejects it.  An output
    that its check rejects, or a verdict of failure, is a wrong output.
    """
    state = {}
    for call in calls:
        tally.attempted += 1
        res, verdict = None, False
        try:
            if call.prepare is not None:
                call.prepare(state)
            res = runner.run(call.argv)
            verdict = call.known_fault is None and call.is_verdict(res)
            if call.known_fault is None and not verdict:
                _exit_ok(res)
            try:
                call.check(res, state)
            except (KeyError, IndexError, TypeError, ValueError) as e:
                raise CheckError(f"malformed output ({type(e).__name__}: {e})") from None
            require(not verdict, f"exit code {res.code}, yet the output passes its check")
        except CheckError as e:
            name = " ".join(call.argv[:3])
            if call.known_fault is not None or res is None or (res.code != 0 and not verdict):
                tally.failed += 1
                tally.note("FAILED", f"{name}: {e}")
            else:
                tally.incorrect = True
                tally.note("WRONG OUTPUT", f"{name}: {e}")
        else:
            if call.metric is not None:
                tally.samples[call.metric].append(res.seconds)
