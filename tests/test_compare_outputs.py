"""`tools/compare_outputs.py`: what it masks, and that it sees a changed renderer.

The children it starts are real `python -m q8family` runs, so the tests
here use a few fast commands; the slow test runs the whole list with
the repository's `src/` on both sides.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

SRC = ROOT / "src"
FAST = (("verify", "--prime", "3"), ("verify", "--prime", "5", "--format", "json"),
        ("scan", "--primes", "3..7"), ("scan", "--primes", "3..5", "--format", "json"),
        ("verify", "--prime", "9"))


def test_only_timing_values_are_masked():
    text = ('{"prime": 7, "seconds": 0.0007792399992467836,\n'
            '  "verification_seconds": 8.5e-05, "total_seconds": 12,\n'
            '  "seconds_left": 3, "ratio": 0.25}\n'
            "p=3   |G|=72    labels=1   [chi^2,psi]=2x1      PASS  (12.34s)\n"
            "chi^2 = 1*triv (2.00)\n")
    assert compare_outputs.mask(text) == (
        '{"prime": 7, "seconds": <t>,\n'
        '  "verification_seconds": <t>, "total_seconds": <t>,\n'
        '  "seconds_left": 3, "ratio": 0.25}\n'
        "p=3   |G|=72    labels=1   [chi^2,psi]=2x1      PASS  (<t>s)\n"
        "chi^2 = 1*triv (2.00)\n")


def test_differences_name_each_stream_and_the_exit_code():
    same = ("a\nb\n", "", 0)
    assert compare_outputs.differences(same, same) == []
    assert compare_outputs.differences(same, ("a\nc\n", "oops\n", 1)) == [
        "stdout: -b", "stderr: +oops", "exit code: 0 -> 1"]


def test_one_source_tree_against_itself_is_the_same(capsys):
    assert compare_outputs.compare(SRC, SRC, FAST) == 0
    assert capsys.readouterr().out.splitlines() == [f"same  {' '.join(c)}" for c in FAST]


def test_a_changed_renderer_string_is_a_difference(tmp_path, monkeypatch, capsys):
    parent = tmp_path / "src"
    shutil.copytree(SRC, parent, ignore=shutil.ignore_patterns("__pycache__"))
    cli = parent / "q8family" / "cli.py"
    text = cli.read_text()
    assert "VERDICT: " in text
    cli.write_text(text.replace("VERDICT: ", "Verdict: "))

    monkeypatch.setattr(compare_outputs, "COMMANDS", FAST)
    assert compare_outputs.main(["--parent-src", str(parent)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "DIFF  verify --prime 3"
    assert out[1].startswith("      stdout: -Verdict: PASS")
    assert out[2:] == [f"same  {' '.join(c)}" for c in FAST[1:]] + ["4 same, 1 DIFF"]


@pytest.mark.slow
def test_every_command_is_the_same_on_one_source_tree(capsys):
    assert compare_outputs.main(["--parent-src", str(SRC)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{len(compare_outputs.COMMANDS)} same, 0 DIFF"
