"""The names `perfbench/tracing.py` wraps still exist in the package.

The tracer behind `perfbench/run.py --trace 1` looks its functions up by
name and counts `Cyclotomic` products and constructions through the class
dict, so deleting or renaming one of them breaks traced runs without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from q8family.cyclotomic import Cyclotomic

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
