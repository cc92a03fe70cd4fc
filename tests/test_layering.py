"""The package's import layering, read from the source of every module.

Character values are integer counts of roots of unity, so the arithmetic
module needs no `fractions`, and only `selftest`'s oracles (and the
package's exports) use the `Cyclotomic` arithmetic: `verify`, `scan` and
`table` run on `RootSum` counts alone.  `RootSum` has no arithmetic, and
`Cyclotomic` is a `RootSum` that adds the ring operations and nothing
else, so Z[zeta_p] has one representation.  Second orthogonality is derived
from assembly's certificate, so only `selftest` runs the column sums.
`modp` holds the one check that p is an odd prime; the prime bound is a
parameter only of `modp`'s checks, which the command line applies, and
`groups` conjugates with `SemidirectGroup.conj` alone.  No module
imports `dataclasses`, which would load `inspect` at every start-up, and
`serialize` takes only `RootSum` from the package.  The table checks decide
on classes: the squaring pass of `conjugacy_classes` is the only code that
squares every element, so no check walks the elements or multiplies.
`groups` decides the Frobenius structure once: Q is checked only where
it is made (`QuaternionSubgroup`, from p, X and Y alone), the identity
matrix is spelled and compared with a matrix part only there (`in_core`),
and the class partition has one predicate, which `conjugacy_classes`
calls without conjugating anything.  The classes inside V and the class
V z are derived once, by `ClassTable`, so no function of `characters` or
`modular` reads `in_core` or z.  The free label orbit, the partition and
the `--jobs` refusal each raise from one place, so each has one text.
"""

import ast
import inspect
from importlib import import_module
from pathlib import Path

import pytest

import q8family
from q8family import characters, cyclotomic
from q8family.cyclotomic import Cyclotomic, RootSum
from q8family.groups import ClassTable, QuaternionSubgroup

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


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_only_modp_refuses_a_prime_range_or_label(path):
    refusals = ("exceeds the prime bound", "bad prime range", "no odd primes in range",
                "label must be nontrivial")
    found = {r for r in refusals for text in strings(path) if r in text}
    assert found == (set(refusals) if path.name == "modp.py" else set())


def test_only_modp_takes_a_prime_bound():
    # `modular.split_prime`'s bound is on the sums an F_l image must hold, not on p
    capped = {(path.name, f.name) for path in MODULES if path.name != "modular.py"
              for f in functions(path)
              if "bound" in [a.arg for a in f.args.args + f.args.kwonlyargs]}
    assert capped == {("modp.py", "require_odd_prime"), ("modp.py", "odd_primes")}


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_no_module_imports_dataclasses(path):
    # `dataclasses` imports `inspect`, together 7-10 ms of every CLI start-up
    assert [mod for mod, _ in imports(path) if mod.split(".")[0] == "dataclasses"] == []


def test_groups_has_one_conjugation_formula():
    [path] = [m for m in MODULES if m.name == "groups.py"]
    assert "_conjugate" not in {f.name for f in functions(path)}


def test_table_checks_never_walk_the_elements_or_multiply():
    [path] = [m for m in MODULES if m.name == "characters.py"]
    # the checks and the square locus they read
    names = {fn.__name__ for _, fn in characters.TABLE_CHECKS} | {"square_locus"}
    checks = [f for f in functions(path) if f.name in names]
    assert {f.name for f in checks} == names
    for f in checks:
        attrs = {node.attr for node in ast.walk(f) if isinstance(node, ast.Attribute)}
        assert not attrs & {"elements", "mul"}, f.name


def _tuple_literal(node):
    """The value of a tuple of constants, else None."""
    if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts):
        return tuple(e.value for e in node.elts)
    return None


def identity_matrix_spellings(path):
    """"literal" for each tuple of constants ending in the entries (1, 0, 0, 1), and
    "slice" for each comparison of a slice with IDENTITY_MATRIX or such a tuple."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        literal = _tuple_literal(node)
        if literal is not None and literal[-4:] == (1, 0, 0, 1):
            found.append("literal")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(s, ast.Subscript) and isinstance(s.slice, ast.Slice)
                    for s in sides)
                    and any(isinstance(s, ast.Name) and s.id == "IDENTITY_MATRIX"
                            or (_tuple_literal(s) or ())[-4:] == (1, 0, 0, 1)
                            for s in sides)):
                found.append("slice")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_only_groups_spells_the_identity_matrix_or_tests_membership_in_v(path):
    in_groups = path.name == "groups.py"
    # IDENTITY_MATRIX itself, and the one comparison of `SemidirectGroup.in_core`
    assert identity_matrix_spellings(path) == (["literal", "slice"] if in_groups else [])
    assert ("in_core" in {f.name for f in functions(path)}) == in_groups


def test_the_classes_of_v_and_of_vz_are_read_off_the_class_table():
    # `ClassTable` derives `core` and `z_class`; the class-level readers take them from it
    readers = [m for m in MODULES if m.name in ("characters.py", "modular.py")]
    assert len(readers) == 2
    found = {(path.name, f.name) for path in readers for f in functions(path)
             for node in ast.walk(f)
             if isinstance(node, ast.Attribute) and node.attr in ("in_core", "z")
             or isinstance(node, ast.Name) and node.id == "in_core"}
    assert found == set()


def test_conjugacy_classes_decides_its_partition_with_the_table_check_predicate():
    assert {path.name for path in MODULES for f in functions(path)
            if f.name == "class_partition_holds"} == {"groups.py"}
    [path] = [m for m in MODULES if m.name == "groups.py"]
    [f] = [f for f in functions(path) if f.name == "conjugacy_classes"]
    called = {node.func.id for node in ast.walk(f)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "class_partition_holds" in called
    assert characters.class_partition_holds is q8family.groups.class_partition_holds


def test_q_is_checked_only_where_it_is_made():
    raisers = {(path.name, f.name) for path in MODULES for f in functions(path)
               for node in ast.walk(f) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and "quaternion relations fail" in node.value}
    assert raisers == {("groups.py", "__init__")}
    [path] = [m for m in MODULES if m.name == "groups.py"]
    [owner] = [c.name for c in ast.parse(path.read_text()).body if isinstance(c, ast.ClassDef)
               and "quaternion relations fail" in ast.unparse(c)]
    assert owner == "QuaternionSubgroup"


def test_the_premises_the_relations_imply_are_not_checked_again():
    gone = ("has det != 1", "fixes a nonzero vector", "is not in Q", "unique involution",
            "no (a, b)", "preserve centralizer orders")
    assert [(path.name, text) for path in MODULES for text in gone
            if text in path.read_text()] == []


def test_the_constructors_take_only_what_nothing_else_derives():
    assert tuple(inspect.signature(QuaternionSubgroup).parameters) == ("p", "x", "y")
    assert "centralizer_orders" not in inspect.signature(ClassTable).parameters


def test_conjugacy_classes_conjugates_nothing():
    [path] = [m for m in MODULES if m.name == "groups.py"]
    [f] = [f for f in functions(path) if f.name == "conjugacy_classes"]
    assert "conj" not in {node.attr for node in ast.walk(f) if isinstance(node, ast.Attribute)}


# fragments of the texts each one fact raises; each fact must raise from one place
ONE_TEXT = {
    "free_label_orbit": ("not 8", "nontrivial stabilizer"),
    "class_partition": ("class sizes do not", "does not divide |G|"),
    "jobs": ("--jobs must be >= 1",),
}


@pytest.mark.parametrize("fragments", ONE_TEXT.values(), ids=ONE_TEXT)
def test_each_structural_fact_and_the_jobs_refusal_have_one_text(fragments):
    found = [(path.name, node.value) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(f in node.value for f in fragments)]
    assert len(found) == 1, found


def test_each_export_is_what_its_module_defines():
    # the package serves its exports from one table, read on first use
    for name, module in q8family._EXPORTS.items():
        assert getattr(q8family, name) is getattr(import_module(f"q8family.{module}"), name)
    assert set(q8family.__all__) == set(q8family._EXPORTS) <= set(dir(q8family))
