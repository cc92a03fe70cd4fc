"""The package's import layering, read from the source of every module.

Character values are integer counts of roots of unity, so the arithmetic
module needs no `fractions`, and only `selftest`'s oracles (and the
package's exports) use the `Cyclotomic` arithmetic: `verify`, `scan` and
`table` run on `RootSum` counts alone.  `RootSum` has no arithmetic, and
`Cyclotomic` is a `RootSum` that adds the ring operations and nothing
else, so Z[zeta_p] has one representation.  Second orthogonality is derived
from assembly's certificate, so only `selftest` runs the column sums.
`modp` holds the one check that p is an odd prime; the prime bound is a
parameter only of that check and of the three entry points that apply it,
and `groups` conjugates with `SemidirectGroup.conj` alone.  No module
imports `dataclasses`, which would load `inspect` at every start-up, and
`serialize` takes only `RootSum` from the package.  The table checks decide
on classes: the squaring pass of `conjugacy_classes` is the only code that
squares every element, so no check walks the elements or multiplies.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import q8family
from q8family import characters, cyclotomic
from q8family.cyclotomic import Cyclotomic, RootSum

MODULES = sorted(Path(q8family.__file__).parent.glob("*.py"))


def imports(path):
    """(module, name) for every name the module imports; name None for a plain import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module or "", alias.name) for alias in node.names]
    return found


def identifiers(path):
    """Every name the module defines, imports, reads or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def unread_imports(path):
    """Names bound by the module's top-level imports that the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path) == set()


def test_every_module_is_read():
    assert ({"characters.py", "cyclotomic.py", "selftest.py", "__init__.py", "verify.py"}
            <= {m.name for m in MODULES})


def test_table_values_have_no_arithmetic_and_cyclotomic_adds_only_ring_operations():
    assert not {"__add__", "__radd__", "__mul__", "__rmul__", "conjugate"} & set(vars(RootSum))
    assert issubclass(Cyclotomic, RootSum) and Cyclotomic.__slots__ == ()
    own = set(vars(Cyclotomic)) - {"__module__", "__doc__", "__slots__", "__qualname__"}
    assert {name for name in own if not name.startswith("_") or name.endswith("__")} == {
        "__init__", "__add__", "__radd__", "__mul__", "__rmul__", "conjugate"}


def test_cyclotomic_has_one_representation():
    for name in ("ZERO", "ONE", "coeffs_at"):
        assert not hasattr(cyclotomic, name)
        assert not hasattr(Cyclotomic, name) and not hasattr(RootSum, name)


def test_serialize_imports_only_cyclotomic_from_the_package():
    # the cache is compared as text, so serialize needs no table invariants
    [path] = [m for m in MODULES if m.name == "serialize.py"]
    package = {m.stem for m in MODULES}
    assert {mod for mod, _ in imports(path) if mod in package} == {"cyclotomic"}


def test_cyclotomic_imports_nothing_from_fractions():
    [path] = [m for m in MODULES if m.name == "cyclotomic.py"]
    assert [(mod, name) for mod, name in imports(path)
            if mod.split(".")[0] == "fractions"] == []


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_only_selftest_and_the_exports_import_cyclotomic(path):
    # the package imports no layer: it serves its exports lazily from a table
    names = (set(q8family._EXPORTS) if path.name == "__init__.py"
             else {name for _, name in imports(path)})
    assert ("Cyclotomic" in names) == (path.name in ("selftest.py", "__init__.py"))


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_only_selftest_names_the_column_sums(path):
    named = "check_second_orthogonality" in identifiers(path)
    assert named == (path.name in ("characters.py", "selftest.py"))


def functions(path):
    """Every function the module defines, at any depth."""
    return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def strings(path):
    """Every string constant in the module."""
    return {node.value for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_only_modp_checks_that_p_is_an_odd_prime(path):
    in_modp = path.name == "modp.py"
    assert any("odd_prime" in f.name for f in functions(path)) == in_modp
    assert any("not an odd prime" in text for text in strings(path)) == in_modp


def test_the_prime_bound_is_a_parameter_of_the_check_and_the_entry_points_only():
    # `modular.split_prime`'s bound is on the sums an F_l image must hold, not on p
    capped = {f.name for path in MODULES if path.name != "modular.py"
              for f in functions(path)
              if "bound" in [a.arg for a in f.args.args + f.args.kwonlyargs]}
    assert capped == {"require_odd_prime", "verify_prime", "scan_primes", "run_selftest"}


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_no_module_imports_dataclasses(path):
    # `dataclasses` imports `inspect`, together 7-10 ms of every CLI start-up
    assert [mod for mod, _ in imports(path) if mod.split(".")[0] == "dataclasses"] == []


def test_groups_has_one_conjugation_formula():
    [path] = [m for m in MODULES if m.name == "groups.py"]
    assert "_conjugate" not in {f.name for f in functions(path)}


def test_table_checks_never_walk_the_elements_or_multiply():
    [path] = [m for m in MODULES if m.name == "characters.py"]
    # the checks, the class lookup they share and the square locus they read
    names = {fn.__name__ for _, fn in characters.TABLE_CHECKS} | {"_z_class", "square_locus"}
    checks = [f for f in functions(path) if f.name in names]
    assert {f.name for f in checks} == names
    for f in checks:
        attrs = {node.attr for node in ast.walk(f) if isinstance(node, ast.Attribute)}
        assert not attrs & {"elements", "mul"}, f.name


def test_each_export_is_what_its_module_defines():
    # the package serves its exports from one table, read on first use
    for name, module in q8family._EXPORTS.items():
        assert getattr(q8family, name) is getattr(import_module(f"q8family.{module}"), name)
    assert set(q8family.__all__) == set(q8family._EXPORTS) <= set(dir(q8family))
