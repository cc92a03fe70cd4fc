"""The names `perfbench/tracing.py` wraps still exist in the package.

The tracer behind `perfbench/run.py --trace 1` looks its functions up by
name and counts `Cyclotomic` products and constructions through the class
dict, so deleting or renaming one of them breaks traced runs without
failing any other test.  It also reads two results: the table document
passed to `canonical_json` (its `serialize.table_bytes`) and the None that
`load_cached_table` returns on a miss (its cache hit and miss counts).
Only `selftest` builds `Cyclotomic` values, so a traced `selftest` run is
what shows the counters still count.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import q8family
from q8family import cli, cyclotomic
from q8family.cyclotomic import Cyclotomic
from q8family.serialize import load_cached_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", [f"{layer}.{fn}" for layer, fns in tracing.SPANNED.items()
                                  for fn in fns])
def test_every_spanned_function_exists(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    assert callable(getattr(module, fn, None))


@pytest.mark.parametrize("attr", ["__init__", "__mul__", "__rmul__"])
def test_counted_cyclotomic_methods_are_in_the_class_dict(attr):
    assert attr in Cyclotomic.__dict__



def test_tracer_measures_the_table_document_given_to_canonical_json(capsys):
    # _measure_table counts only a dict with "characters" as canonical_json's argument
    with tracing.Tracer() as tracer:
        assert cli.main(["table", "--prime", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert tracer.metrics_since(0)["serialize.table_bytes"] == len(out.encode()) > 0


def test_tracer_counts_a_cache_miss_then_a_hit(tmp_path, capsys):
    # _count_lookup reads None from load_cached_table as a miss, anything else as a hit
    assert load_cached_table(tmp_path, 5) is None
    argv = ["table", "--prime", "5", "--format", "text", "--cache", str(tmp_path)]
    with tracing.Tracer() as tracer:
        assert cli.main(argv) == 0
        cold = tracer.metrics_since(0)
        mark = len(tracer.spans)
        assert cli.main(argv) == 0
        warm = tracer.metrics_since(mark)
    capsys.readouterr()
    assert (cold["serialize.cache_misses"], cold["serialize.cache_hits"]) == (1, 0)
    assert (warm["serialize.cache_misses"], warm["serialize.cache_hits"]) == (0, 1)


def test_tracer_counts_the_cyclotomic_work_of_selftest(capsys):
    # verify and table build no Cyclotomic; selftest's oracles are all the counters see
    with tracing.Tracer() as tracer:
        assert cli.main(["selftest", "--prime", "3"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics_since(0)
    assert metrics["cyclotomic.mul_calls"] > 0
    assert metrics["cyclotomic.values_created"] > 0


def test_every_public_name_resolves_and_general_orders_are_gone():
    assert all(hasattr(q8family, name) for name in q8family.__all__)
    for name in ("cyclotomic_polynomial", "euler_phi"):
        assert not hasattr(q8family, name)
        assert not hasattr(cyclotomic, name)
