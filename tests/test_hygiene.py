"""Package hygiene: the public names resolve, no module imports dead names,
and scipy.integrate is imported only where the one quadrature primitive,
quadrature.converge, does not serve."""

import ast
from pathlib import Path

import pytest

import starkscatter

MODULES = sorted(p for p in Path(starkscatter.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from starkscatter import *", namespace)
    assert set(starkscatter.__all__) <= namespace.keys()


def test_public_names_are_listed_once():
    names = starkscatter.__all__
    assert len(names) == len(set(names))


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement of the module, to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = (
                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# scipy.integrate names a module may import: the compiled orbit solver and
# its DOP853 tableau, and the scipy quad oracle of verify-all's c1 check
_SCIPY_INTEGRATE = {"classical": {"ode", "dop853_coefficients"},
                    "cli": {"quad"}}


def _scipy_integrate_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names
                      if a.name.startswith("scipy.integrate")}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("scipy.integrate"):
                names |= {a.name for a in node.names}
            elif node.module == "scipy":
                names |= {"scipy." + a.name for a in node.names
                          if a.name == "integrate"}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_integrate_only_where_allowed(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    extra = _scipy_integrate_names(tree) - _SCIPY_INTEGRATE.get(path.stem,
                                                                set())
    assert not extra, f"{path.name} imports scipy.integrate names {extra}"


# the one-point potential functions, which only potentials itself may call:
# every other module evaluates a batch of points in one array call
_ONE_POINT = {"eval_potential", "grad_potential"}


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "potentials"],
                         ids=lambda p: p.stem)
def test_one_point_potential_functions_stay_in_potentials(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & _ONE_POINT, (
        f"{path.name} uses {names & _ONE_POINT}: call the array functions")
