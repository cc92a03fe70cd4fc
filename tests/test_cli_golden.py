"""Golden front-end behaviour: the exact stderr and exit code of each usage error.

Every case fails before any output, so stdout stays empty.  The parser's own
messages wrap at the terminal width, which COLUMNS pins.
"""

import pytest

from q8family import cli

PARSER_USAGE = "usage: q8family [-h] {verify,table,scan,selftest} ...\n"
VERIFY_USAGE = ("usage: q8family verify [-h] --prime PRIME [--label LABEL] [--alt-subgroup]\n"
                "                       [--format {text,json}] [--out OUT] [--bound BOUND]\n")

GOLDEN = [
    (["verify", "--prime", "3", "--label", "1;2"],
     "error: label must look like 'a,b', got '1;2'\n"),
    (["verify", "--prime", "3", "--label", "1,2,3"],
     "error: label must look like 'a,b', got '1,2,3'\n"),
    (["verify", "--prime", "3", "--label", "x,2"],
     "error: label must be two integers, got 'x,2'\n"),
    (["verify", "--prime", "3", "--label", "0,0"],
     "error: label must be nontrivial\n"),
    # the label is read before the prime is checked
    (["verify", "--prime", "4", "--label", "1;2"],
     "error: label must look like 'a,b', got '1;2'\n"),
    (["verify", "--prime", "4"], "error: p=4: not an odd prime\n"),
    (["verify", "--prime", "9"], "error: p=9: not an odd prime\n"),
    (["verify", "--prime", "101"], "error: p=101 exceeds the prime bound 97\n"),
    (["table", "--prime", "4"], "error: p=4: not an odd prime\n"),
    (["table", "--prime", "5", "--bound", "3"],
     "error: p=5 exceeds the prime bound 3\n"),
    (["selftest", "--prime", "9"], "error: p=9: not an odd prime\n"),
    (["selftest", "--prime", "101"], "error: p=101 exceeds the prime bound 97\n"),
    (["scan", "--primes", "3-7"],
     "error: prime range must look like 'A..B', got '3-7'\n"),
    (["scan", "--primes", "a..b"],
     "error: prime range bounds must be integers, got 'a..b'\n"),
    (["scan", "--primes", "7..3"], "error: bad prime range 7..3\n"),
    (["scan", "--primes", "8..9"], "error: no odd primes in range 8..9\n"),
    (["scan", "--primes", "3..101"], "error: p=101 exceeds the prime bound 97\n"),
    (["scan", "--primes", "3..5", "--jobs", "0"], "error: --jobs must be >= 1\n"),
    # the range is read before --jobs is checked
    (["scan", "--primes", "3-7", "--jobs", "0"],
     "error: prime range must look like 'A..B', got '3-7'\n"),
    ([], PARSER_USAGE
     + "q8family: error: the following arguments are required: command\n"),
    (["verify", "--prime", "3", "--format", "xml"], VERIFY_USAGE
     + "q8family verify: error: argument --format: invalid choice: 'xml' "
       "(choose from 'text', 'json')\n"),
]


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv,stderr", GOLDEN, ids=[" ".join(a) or "(none)" for a, _ in GOLDEN])
def test_usage_error(argv, stderr, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "table", "scan", "selftest"])
def test_help_lists_bound(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert "--bound BOUND" in capsys.readouterr().out
