"""CLI outputs of the parent commit against the working tree, apart from timing values.

    python3 tools/compare_outputs.py --parent HEAD
    python3 tools/compare_outputs.py --parent-src ../old/src

Run from the root of the repository.  The parent ref's `src/` is
exported with `git archive` into a temporary directory (or --parent-src
names one), and every command of COMMANDS runs as `python -m q8family
...` once against it and once against the repository's `src/`, each in
an empty temporary directory, without the cache environment variable.
The files a command leaves in that directory (its `--out` file, its
`--cache` directory) are compared too.  Only timing values are masked:
the value of every JSON key ending in `seconds`, and `scan`'s `(N.NNs)`.
One line per command reads `same` or `DIFF`, and a DIFF names the
streams that differ (stdout, stderr, exit code) and each file that
differs or exists on one side only, with the first differing line of
each.  Exits 1 on any difference.  Standard library only.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_parent  # noqa: E402


def _commands():
    out = []
    for p in (3, 5, 7, 13):
        for fmt in ("text", "json"):
            for extra in ((), ("--label", "1,2"), ("--alt-subgroup",)):
                out.append(("verify", "--prime", str(p), "--format", fmt, *extra))
    for fmt in ("json", "text"):
        for extra in ((), ("--jobs", "2"), ("--alt-subgroup",)):
            out.append(("scan", "--primes", "3..13", "--format", fmt, *extra))
    # the conjugated subgroup at the largest benchmark prime
    out.append(("verify", "--prime", "17", "--alt-subgroup", "--format", "json"))
    out += [("selftest", "--prime", str(p)) for p in (3, 7, 13)]
    out += [("table", "--prime", str(p), "--format", fmt)
            for p in (5, 17) for fmt in ("json", "text", "csv")]
    # the files a command writes: a cold cache miss, and an --out file of each kind
    out += [("table", "--prime", "5", "--cache", "c", "--format", "json"),
            ("table", "--prime", "5", "--format", "csv", "--out", "t.csv"),
            ("verify", "--prime", "5", "--format", "json", "--out", "r.json")]
    # usage errors: exit 2, each checked before any layer is loaded
    out += [("verify", "--prime", "9"), ("verify", "--prime", "5", "--label", "0,0"),
            ("verify", "--prime", "101"), ("verify", "--prime", "7", "--bound", "5"),
            ("verify", "--prime", "9", "--label", "x"),
            ("verify", "--prime", "5", "--label", "5,10"),
            ("selftest", "--prime", "9"), ("selftest", "--prime", "101"),
            ("table", "--prime", "101"), ("scan", "--primes", "3..7", "--jobs", "0"),
            ("scan", "--primes", "5..3"), ("scan", "--primes", "0..2"),
            ("scan", "--primes", "8..10"), ("scan", "--primes", "3..13", "--bound", "7"),
            ("scan", "--primes", "3..101")]
    return tuple(out)


COMMANDS = _commands()

_JSON_SECONDS = re.compile(r'("[^"]*seconds"\s*:\s*)-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
_SCAN_SECONDS = re.compile(r"\(\d+\.\d+s\)")


def mask(text):
    """text with every timing value replaced by a fixed placeholder."""
    return _SCAN_SECONDS.sub("(<t>s)", _JSON_SECONDS.sub(r"\g<1><t>", text))


def run(src, args):
    """(masked stdout, masked stderr, exit code, files) of `python -m q8family args` on src.

    files maps the relative path of every file the command left in its
    working directory to its masked text.
    """
    env = {k: v for k, v in os.environ.items() if k != "Q8FAMILY_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(src).resolve())
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "q8family", *args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        files = {path.relative_to(cwd).as_posix():
                 mask(path.read_bytes().decode("utf-8", "backslashreplace"))
                 for path in Path(cwd).rglob("*") if path.is_file()}
    return mask(proc.stdout), mask(proc.stderr), proc.returncode, files


def _first_change(a, b):
    """The first removed or added line of the diff of two different texts."""
    return next((line for line in difflib.unified_diff(
        a.splitlines(), b.splitlines(), lineterm="", n=0)
        if line[:1] in "-+" and line[:3] not in ("---", "+++")),
        "(line endings differ)")


def differences(parent, change):
    """One line per differing stream or file of two `run` results, with its first change."""
    out = [f"{name}: {_first_change(a, b)}"
           for name, a, b in zip(("stdout", "stderr"), parent, change) if a != b]
    if parent[2] != change[2]:
        out.append(f"exit code: {parent[2]} -> {change[2]}")
    for name in sorted(parent[3].keys() | change[3].keys()):
        a, b = parent[3].get(name), change[3].get(name)
        if a is None or b is None:
            out.append(f"file {name}: only in the {'parent' if b is None else 'change'}")
        elif a != b:
            out.append(f"file {name}: {_first_change(a, b)}")
    return out


def compare(parent_src, change_src, commands):
    """Run every command on both sides and print `same` or `DIFF`; the count of DIFFs."""
    diffs = 0
    for args in commands:
        found = differences(run(parent_src, args), run(change_src, args))
        print(f"{'DIFF' if found else 'same'}  {' '.join(args)}", flush=True)
        for line in found:
            print(f"      {line}")
        diffs += bool(found)
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="git ref of the parent commit")
    side.add_argument("--parent-src", help="the parent's src/ directory, instead of a ref")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-parent-") as tmp:
        parent_src = args.parent_src
        if parent_src is None:
            export_parent(args.parent, Path(tmp))
            parent_src = Path(tmp) / "src"
        diffs = compare(parent_src, ROOT / "src", COMMANDS)
    print(f"{len(COMMANDS) - diffs} same, {diffs} DIFF")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
