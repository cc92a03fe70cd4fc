import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import q8family
from q8family import cli, serialize
from q8family.cyclotomic import Cyclotomic, RootSum
from q8family.serialize import canonical_json, load_cached_table
from q8family.verify import verify_prime

# ---------------------------------------------------------------- verify


class TestVerifyCommand:
    def test_pass_reports_order_72(self, capsys):
        assert cli.main(["verify", "--prime", "3"]) == 0
        out = capsys.readouterr().out
        assert "|G| = 72" in out
        assert "VERDICT: PASS" in out

    def test_trivial_label_is_usage_error(self, capsys):
        assert cli.main(["verify", "--prime", "3", "--label", "0,0"]) == 2
        assert "label must be nontrivial" in capsys.readouterr().err

    def test_non_prime_is_usage_error(self, capsys):
        assert cli.main(["verify", "--prime", "4"]) == 2
        assert "not an odd prime" in capsys.readouterr().err

    def test_malformed_label(self, capsys):
        assert cli.main(["verify", "--prime", "3", "--label", "1;2"]) == 2
        assert cli.main(["verify", "--prime", "3", "--label", "1,2,3"]) == 2

    def test_json_report(self, capsys):
        assert cli.main(["verify", "--prime", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["prime"] == 3
        assert doc["group_order"] == 72
        assert doc["psi_multiplicity"] == 2
        assert doc["overall_pass"] is True
        assert doc["claims"] == {"induced_irreducible": True,
                                 "indicator_one": True,
                                 "square_contains_psi": True}
        assert doc["induced_norm"] == ["1", "1"]

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        report = verify_prime(3)
        report.claims["indicator_one"] = False

        monkeypatch.setattr(cli, "verify_prime", lambda *a, **k: report)
        assert cli.main(["verify", "--prime", "3"]) == 1
        assert "VERDICT: FAIL" in capsys.readouterr().out

    def test_alt_subgroup_flag(self, capsys):
        assert cli.main(["verify", "--prime", "5", "--alt-subgroup"]) == 0
        assert "conjugate subgroup" in capsys.readouterr().out

    def test_invariant_violation_exits_three(self, capsys, monkeypatch):
        from q8family.errors import InvariantError

        def boom(*a, **k):
            raise InvariantError("fabricated failure")

        monkeypatch.setattr(cli, "verify_prime", boom)
        assert cli.main(["verify", "--prime", "3"]) == 3
        assert "internal invariant violation" in capsys.readouterr().err


# ---------------------------------------------------------------- table


# sha256 of `table --prime p --format fmt`, recorded when table values were
# still built as Cyclotomic (json at 3, 5 and 17) and before table documents
# held RootSums (the rest); the bytes must stay the same whether the table is
# built or read back from a cache
TABLE_SHA256 = {
    (3, "json"): "ff260558757136e1bacf4ef97515408b6a67a908f263643d4d5f4ee98bc7d622",
    (3, "text"): "fe791f378f9d7bc1d635068e3e4da32f049dea2162761461087b1b701fde6bd1",
    (3, "csv"): "e857b86e32553b1b861e3600e80600ad88c1d0a5e30c3f43399ed3d615e28fe0",
    (5, "json"): "af1c8018d6ab87bfe7d2ba2fdaf22cd628dbddae26eabcee7aff1ba05d292538",
    (5, "text"): "3983deb20ef1e24427a6f507819c12990d7062d52c2dfe7daf942df20f96ebf4",
    (5, "csv"): "86bd5a37c31f4ec22aba04e5046c7d46c8a3c766f54b73223f6714c5e50efee6",
    (7, "json"): "99bf55ba69ae04569b3d2ea5dc56d71c7e35094d8237c48a5250ad7258d15f5d",
    (7, "text"): "3149fb71573a85b767209a60424bfcf9c80b530428d17cf275ed1d4468f6f774",
    (7, "csv"): "7fb5dc8962ac95a976b99440a448e01db65370d3906890c4486c359f5a05df8e",
    (11, "json"): "3d41b12faca4a1d0b79fb4d3059d378664768a27aabcf478034c68f5718f5f21",
    (11, "text"): "e74f2520d393a65489ac7f92b1241640362a6312ced468a32dfcbe47540670e0",
    (11, "csv"): "7a23a33840d6e2ddeb897aa28e99f9e174f6c0900eee6ff276b1ed146230df52",
    (17, "json"): "4a033edc0a55ecdd0a6049a3bcb0a45f28ddbbaf2454ac0ec18f5197fe94928d",
}


class TestTableCommand:
    @pytest.mark.parametrize("p", sorted(p for p, fmt in TABLE_SHA256 if fmt == "json"))
    def test_json_bytes_unchanged(self, capsys, p):
        assert cli.main(["table", "--prime", str(p), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_SHA256[p, "json"]

    def test_json_shape(self, capsys):
        assert cli.main(["table", "--prime", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["group_order"] == 72
        assert len(doc["characters"]) == 6
        assert len(doc["classes"]) == 6
        assert doc["classes"][0]["rep"] == [0, 0, 1, 0, 0, 1]
        names = [c["name"] for c in doc["characters"]]
        assert names == ["triv", "linX", "linY", "linXY", "psi", "ind_0_1"]

    def test_text_header(self, capsys):
        assert cli.main(["table", "--prime", "5", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "|G| = 200" in out
        # 8 character rows after the three metadata rows and one header line
        assert len(out.strip().splitlines()) == 1 + 3 + 8

    def test_csv_round_trip(self, capsys):
        assert cli.main(["table", "--prime", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["name", "degree", "indicator"]
        assert len(lines) == 4 + 6
        psi_row = [l for l in lines if l.startswith("psi,")][0]
        assert psi_row.split(",")[1:3] == ["2", "-1"]

    def test_repeat_runs_byte_identical(self, capsys):
        assert cli.main(["table", "--prime", "5", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["table", "--prime", "5", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_writes_atomically(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["prime"] == 3
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert not leftovers

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_follow_umask(self, tmp_path, capsys, umask):
        saved = os.umask(umask)
        try:
            assert cli.main(["verify", "--prime", "3", "--format", "json",
                             "--out", str(tmp_path / "o.json")]) == 0
            assert cli.main(["table", "--prime", "3", "--format", "json",
                             "--cache", str(tmp_path)]) == 0
        finally:
            os.umask(saved)
        capsys.readouterr()
        for name in ("o.json", "table_p3.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask

    def test_unwritable_out_is_usage_error(self, capsys):
        code = cli.main(["table", "--prime", "3", "--format", "json",
                         "--out", "/proc/nonexistent/t.json"])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestTableCache:
    def test_cache_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", cache]) == 0
        fresh = capsys.readouterr()
        assert "cache hit" not in fresh.err
        hit = load_cached_table(cache, 3)
        assert hit is not None
        assert canonical_json(hit) == fresh.out

        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", cache]) == 0
        second = capsys.readouterr()
        assert "cache hit" in second.err
        assert second.out == fresh.out  # byte-identical from cache

    def test_corrupt_cache_recomputed(self, tmp_path, capsys):
        cache = str(tmp_path)
        (tmp_path / "table_p3.json").write_text("{ not json")
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", cache]) == 0
        captured = capsys.readouterr()
        assert "cache hit" not in captured.err
        assert json.loads(captured.out)["prime"] == 3

    @pytest.mark.parametrize("dir_is_a_file", [False, True],
                             ids=["file_is_a_directory", "dir_is_a_file"])
    def test_unwritable_cache_is_usage_error(self, tmp_path, capsys, dir_is_a_file):
        cache = tmp_path / "cache"
        if dir_is_a_file:
            cache.write_text("")
        else:
            (cache / "table_p5.json").mkdir(parents=True)
        assert cli.main(["table", "--prime", "5", "--cache", str(cache)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write cache {cache / 'table_p5.json'}: ")
        assert err.count("\n") == 1

    def test_stale_format_recomputed(self, tmp_path, capsys):
        cache = str(tmp_path)
        (tmp_path / "table_p3.json").write_text(json.dumps({"format": 0, "prime": 3}))
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", cache]) == 0
        assert "cache hit" not in capsys.readouterr().err
        assert load_cached_table(cache, 3)["format"] == 1

    def test_tampered_cache_rejected_and_rewritten(self, tmp_path, capsys):
        cache = str(tmp_path)
        assert cli.main(["table", "--prime", "5", "--format", "json",
                         "--cache", cache]) == 0
        genuine = capsys.readouterr().out
        path = tmp_path / "table_p5.json"
        doc = json.loads(path.read_text())
        psi = next(ch for ch in doc["characters"] if ch["degree"] == 2)
        psi["indicator"] = -psi["indicator"]
        psi["values"][-1] = {"n": 1, "coeffs": [["7", "1"]]}
        path.write_text(json.dumps(doc, indent=2) + "\n")

        assert cli.main(["table", "--prime", "5", "--format", "json",
                         "--cache", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == genuine
        assert "cache hit" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("cache rejected:")
        assert path.read_text() == genuine

    @staticmethod
    def assert_edit_rebuilt(tmp_path, capsys, fmt, edit, rejected=True):
        """A p=3 cache document given edit(doc) is rebuilt and rewritten.

        A rejected one is reported in one stderr line; any other is a silent miss.
        """
        cache = str(tmp_path)
        assert cli.main(["table", "--prime", "3", "--format", "json", "--cache", cache]) == 0
        stored = capsys.readouterr().out
        assert cli.main(["table", "--prime", "3", "--format", fmt]) == 0
        genuine = capsys.readouterr().out
        path = tmp_path / "table_p3.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=2) + "\n")

        assert cli.main(["table", "--prime", "3", "--format", fmt, "--cache", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == genuine
        if rejected:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(f"cache rejected: {path}: ")
        else:
            assert captured.err == ""
        assert path.read_text() == stored
        return captured.err

    @staticmethod
    def assert_value_edit_rejected_and_rewritten(tmp_path, capsys, fmt, edit):
        """A p=3 cache whose last row gets edit(values) is rejected, rebuilt and rewritten."""
        return TestTableCache.assert_edit_rebuilt(
            tmp_path, capsys, fmt, lambda doc: edit(doc["characters"][-1]["values"]))

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_unparsable_coefficient_rejected_and_rewritten(self, tmp_path, capsys, fmt):
        def zero_denominator(values):
            values[0]["coeffs"][0] = ["1", "0"]

        self.assert_value_edit_rejected_and_rewritten(tmp_path, capsys, fmt, zero_denominator)

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("edit", ["eight halves", "too few coefficients"])
    def test_value_outside_z_zeta_p_rejected_and_rewritten(self, tmp_path, capsys, fmt, edit):
        def eight_halves(values):  # 8/2 = 4, but no integer written as [num, "1"]
            assert values[0] == {"n": 1, "coeffs": [["8", "1"]]}
            values[0]["coeffs"][0] = ["8", "2"]

        def too_few_coefficients(values):  # zero-padded, [] would read as 0
            values[0]["coeffs"].pop()

        edits = {"eight halves": eight_halves, "too few coefficients": too_few_coefficients}
        self.assert_value_edit_rejected_and_rewritten(tmp_path, capsys, fmt, edits[edit])

    @pytest.mark.parametrize("coeff, reason", [
        (["8", "2"], 'a coefficient that is not [decimal integer, "1"]'),
        (["+1", "1"], "'+1' is not an integer as str writes it"),
    ])
    def test_rejection_names_the_parse_failure(self, tmp_path, capsys, coeff, reason):
        # both are exact integers, refused only for how they are written
        def respell(values):
            values[0]["coeffs"][0] = coeff

        err = self.assert_value_edit_rejected_and_rewritten(tmp_path, capsys, "json", respell)
        path = tmp_path / "table_p3.json"
        assert err == f"cache rejected: {path}: a character value does not parse: {reason}\n"

    # edits of a p=3 document's JSON type or shape -> True if the document is
    # rejected on stderr, False if it is a silent miss like another format
    SHAPE_EDITS = {
        "prime float": (lambda doc: doc.update(prime=3.0), False),
        "format true": (lambda doc: doc.update(format=True), False),
        "format float": (lambda doc: doc.update(format=1.0), False),
        "character without name": (lambda doc: doc["characters"][0].pop("name"), True),
        "class without rep": (lambda doc: doc["classes"][0].pop("rep"), True),
        "extra top-level key": (lambda doc: doc.update(note="kept"), True),
        "name not a string": (lambda doc: doc["characters"][0].update(name=1), True),
        "rep of five ints": (lambda doc: doc["classes"][0]["rep"].pop(), True),
    }

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("edit", sorted(SHAPE_EDITS))
    def test_wrong_type_or_shape_is_rebuilt(self, tmp_path, capsys, fmt, edit):
        change, rejected = self.SHAPE_EDITS[edit]
        self.assert_edit_rebuilt(tmp_path, capsys, fmt, change, rejected)

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_prime_bound_checked_before_the_cache(self, tmp_path, capsys, fmt):
        assert cli.main(["table", "--prime", "5", "--format", fmt, "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["table", "--prime", "5", "--bound", "3", "--format", fmt]
        miss = cli.main(argv), capsys.readouterr()
        hit = cli.main(argv + ["--cache", str(tmp_path)]), capsys.readouterr()
        assert hit == miss == (2, ("", "error: p=5 exceeds the prime bound 3\n"))

    def test_cache_not_read_for_a_non_prime(self, tmp_path, capsys, monkeypatch):
        # RootSum equality and is_zero are right only at a prime, so a table_p9.json
        # must never be parsed
        path = tmp_path / "table_p9.json"
        path.write_text("{}")
        read = []
        monkeypatch.setattr(cli, "load_cached_table", lambda *args: read.append(args))
        assert cli.main(["table", "--prime", "9", "--format", "text",
                         "--cache", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", "error: p=9: not an odd prime\n")
        assert read == [] and path.read_text() == "{}"

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_table_builds_no_cyclotomic(self, tmp_path, capsys, built_cyclotomics, fmt):
        cache = ["--cache", str(tmp_path)]
        for run, argv, hit in (("no cache", [], False), ("cold", cache, False),
                               ("warm", cache, True)):
            assert cli.main(["table", "--prime", "7", "--format", fmt, *argv]) == 0
            assert ("cache hit" in capsys.readouterr().err) is hit
            assert built_cyclotomics == [], run
        Cyclotomic(3, [0, 1])  # the counter counts
        assert built_cyclotomics == [3]

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_cache_recomputed(self, tmp_path, capsys, content):
        path = tmp_path / "table_p3.json"
        path.write_bytes(content)
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "cache hit" not in captured.err
        assert json.loads(captured.out)["prime"] == 3
        assert path.read_text() == captured.out

    @pytest.mark.parametrize("p, fmt", sorted(TABLE_SHA256))
    def test_output_bytes_without_cache_cold_and_warm(self, tmp_path, capsys, p, fmt):
        outputs = []
        for argv in ([], ["--cache", str(tmp_path)], ["--cache", str(tmp_path)]):
            assert cli.main(["table", "--prime", str(p), "--format", fmt, *argv]) == 0
            outputs.append(capsys.readouterr())
        assert ["cache hit" in o.err for o in outputs] == [False, False, True]
        assert outputs[0].out == outputs[1].out == outputs[2].out
        digest = hashlib.sha256(outputs[0].out.encode()).hexdigest()
        assert digest == TABLE_SHA256[p, fmt]

    def test_each_distinct_value_encoded_once(self, tmp_path, capsys, monkeypatch, table7):
        distinct = {v.canonical() for r in table7.rows for v in r.values}
        cells = sum(len(r.values) for r in table7.rows)
        assert len(distinct) < cells
        encoded = []
        to_json_obj = RootSum.to_json_obj

        def counted(self):
            encoded.append(self.canonical())
            return to_json_obj(self)

        monkeypatch.setattr(RootSum, "to_json_obj", counted)
        argv = ["table", "--prime", "7", "--format", "json", "--cache", str(tmp_path)]
        for hit in (False, True):
            encoded.clear()
            assert cli.main(argv) == 0
            assert ("cache hit" in capsys.readouterr().err) is hit
            assert sorted(encoded) == sorted(distinct)

    def test_cold_call_encodes_once(self, tmp_path, capsys, monkeypatch):
        assert cli.main(["table", "--prime", "5", "--format", "json"]) == 0
        reference = capsys.readouterr().out
        encoded = []

        def counting(doc):
            encoded.append(doc)
            return canonical_json(doc)

        monkeypatch.setattr(cli, "canonical_json", counting)
        monkeypatch.setattr(serialize, "canonical_json", counting)
        for fmt in ("json", "text", "csv"):
            cache = tmp_path / fmt
            encoded.clear()
            assert cli.main(["table", "--prime", "5", "--format", fmt,
                             "--cache", str(cache)]) == 0
            assert len(encoded) == 1
            out = capsys.readouterr().out
            assert (cache / "table_p5.json").read_text() == reference
            if fmt == "json":
                assert out == reference
        out_file = tmp_path / "out.json"
        encoded.clear()
        assert cli.main(["table", "--prime", "5", "--format", "json",
                         "--cache", str(tmp_path / "with-out"), "--out", str(out_file)]) == 0
        assert len(encoded) == 1
        assert capsys.readouterr().out == ""
        assert out_file.read_text() == reference
        assert (tmp_path / "with-out" / "table_p5.json").read_text() == reference

    def test_cache_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        assert cli.main(["table", "--prime", "3", "--format", "json"]) == 0
        capsys.readouterr()
        assert (tmp_path / "table_p3.json").exists()

    def test_flag_overrides_environment(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir(), flag_dir.mkdir()
        monkeypatch.setenv(cli.CACHE_ENV, str(env_dir))
        assert cli.main(["table", "--prime", "3", "--format", "json",
                         "--cache", str(flag_dir)]) == 0
        capsys.readouterr()
        assert (flag_dir / "table_p3.json").exists()
        assert not (env_dir / "table_p3.json").exists()


# ---------------------------------------------------------------- scan


def _strip_seconds(doc):
    for rec in doc["records"]:
        rec.pop("seconds", None)
    return doc


class TestScanCommand:
    def test_single_prime_matches_verify(self, capsys):
        assert cli.main(["scan", "--primes", "3..3"]) == 0
        out = capsys.readouterr().out
        assert "p=3" in out and "PASS" in out and "all pass" in out

    def test_range_json(self, capsys):
        assert cli.main(["scan", "--primes", "3..7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_pass"] is True
        assert [r["prime"] for r in doc["records"]] == [3, 5, 7]
        assert [r["labels_checked"] for r in doc["records"]] == [1, 3, 6]

    def test_jobs_match_sequential(self, capsys):
        assert cli.main(["scan", "--primes", "3..7", "--format", "json"]) == 0
        seq = _strip_seconds(json.loads(capsys.readouterr().out))
        assert cli.main(["scan", "--primes", "3..7", "--jobs", "4",
                         "--format", "json"]) == 0
        par = _strip_seconds(json.loads(capsys.readouterr().out))
        assert seq == par

    def test_no_primes_in_range(self, capsys):
        assert cli.main(["scan", "--primes", "8..9"]) == 2
        assert "no odd primes" in capsys.readouterr().err

    def test_malformed_range(self, capsys):
        assert cli.main(["scan", "--primes", "3-7"]) == 2
        assert cli.main(["scan", "--primes", "7..3"]) == 2

    def test_bad_jobs(self, capsys):
        assert cli.main(["scan", "--primes", "3..3", "--jobs", "0"]) == 2

    def test_alt_subgroup_scan(self, capsys):
        assert cli.main(["scan", "--primes", "3..5", "--alt-subgroup",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(rec["alt_subgroup_pass"] for rec in doc["records"])


# ---------------------------------------------------------------- selftest


class TestSelftestCommand:
    def test_p3_mentions_sum_rule(self, capsys):
        assert cli.main(["selftest", "--prime", "3"]) == 0
        out = capsys.readouterr().out
        assert "sum rule: 10 = 1 + 3^2" in out
        assert "24/24 checks passed" in out

    def test_p7_mentions_orbit_count(self, capsys):
        assert cli.main(["selftest", "--prime", "7"]) == 0
        out = capsys.readouterr().out
        assert "orbit count 6 = (7^2-1)/8" in out

    def test_composite_prime_rejected(self, capsys):
        assert cli.main(["selftest", "--prime", "9"]) == 2
        assert "not an odd prime" in capsys.readouterr().err

    def test_failed_check_exits_three(self, capsys, monkeypatch):
        from q8family.selftest import CheckResult

        monkeypatch.setattr(
            cli, "run_selftest",
            lambda p, bound: [CheckResult("fabricated", False, "broken")])
        assert cli.main(["selftest", "--prime", "3"]) == 3
        assert "FAIL fabricated" in capsys.readouterr().out


# ---------------------------------------------------------------- harness


class TestHarness:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_format_rejected_by_parser(self, capsys):
        assert cli.main(["verify", "--prime", "3", "--format", "csv"]) == 2

    def test_import_leaves_out_process_pool(self):
        code = ("import sys, q8family.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        src = str(Path(q8family.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_unused_standard_modules(self):
        # counted, not timed: each of these costs start-up in every CLI call
        # (`dataclasses` pulls in `inspect`), and no command needs them there
        code = ("import sys, q8family.cli; print(' '.join(m for m in ('concurrent.futures', "
                "'dataclasses', 'inspect', 'csv') if m in sys.modules))")
        src = str(Path(q8family.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.slow
    def test_verify_at_the_default_bound(self):
        """p = 97, the largest prime the commands take by default, end to end."""
        src = str(Path(q8family.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "q8family", "verify", "--prime", "97", "--format", "json"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["prime"] == 97 and doc["overall_pass"] is True
        assert doc["claims"] and all(doc["claims"].values())
        assert doc["checks"] and all(doc["checks"].values())
        assert doc["psi_multiplicity"] == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "q8family", "verify", "--prime", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "VERDICT: PASS" in proc.stdout
