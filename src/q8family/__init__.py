"""Exact character theory for the family of groups (C_p x C_p) : Q8.

For every odd prime p the library builds the semidirect product of the
natural module V = C_p x C_p with a quaternion subgroup Q8 of SL2(p),
computes its full complex character table in exact arithmetic over
Z[zeta_p], the ring of every character value, attaches Frobenius-Schur
indicators, and certifies that every character induced from a nontrivial
character of V is irreducible with indicator +1 while its tensor square
contains the quaternionic degree-2 character.

The seven computing layers are loaded lazily: importing the package puts
each in `sys.modules` through `importlib.util.LazyLoader`, and its source
is compiled and run only when one of its attributes is first read.  So a
command compiles only the layers it uses (`--help` none of them), which is
most of a CLI call's start-up when bytecode is not cached.  Lazy modules,
not imports inside functions, because a lazy module is in `sys.modules`
from the start: code that looks a layer up there, such as a tracer that
wraps its functions, still finds it, and loads it by reading it.  The
package itself must be lazy too, since `python -m q8family` runs it before
the command line is parsed.  The public names below are served on first
use (PEP 562) from the layer that defines them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("cyclotomic", "groups", "modular", "characters", "verify", "serialize",
           "selftest")

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CharacterTable", "CharRow", "assemble_character_table",
                     "character_table", "default_label", "fs_indicator",
                     "fs_indicator_direct", "induced_values", "inflated_values",
                     "inner_product", "label_action", "label_orbit", "label_orbits",
                     "stabilizer_in_q", "tensor_square_decompose"), "characters"),
    **dict.fromkeys(("Cyclotomic", "RootSum", "root_of_unity"), "cyclotomic"),
    **dict.fromkeys(("InvariantError", "UsageError"), "errors"),
    **dict.fromkeys(("ClassTable", "QuaternionSubgroup", "SemidirectGroup",
                     "build_group", "conjugacy_classes", "conjugated_subgroup",
                     "count_square_roots_of_identity", "quaternion_subgroup",
                     "square_locus"), "groups"),
    **dict.fromkeys(("Mat2", "is_odd_prime"), "modp"),
    "run_selftest": "selftest",
    **dict.fromkeys(("Report", "scan_primes", "verify_label", "verify_prime"), "verify"),
}

__all__ = list(_EXPORTS)


def _lazy(layer):
    """This package's module layer, in sys.modules but run only when an attribute is read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({layer: _lazy(layer) for layer in _LAYERS})


def __getattr__(name):
    layer = _EXPORTS.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{layer}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
