"""Package hygiene: the public names resolve, no module imports dead names,
the package imports no scipy.integrate and loads no scipy subpackage beyond
special and fft, one-point functions stay in their own module and no module
reaches into another's private names."""

import ast
import json
import subprocess
import sys
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


# scipy.integrate names a module may import: none, since orbits step in
# classical's own DOP853 and verify-all's c1 oracle is a tanh-sinh rule
_SCIPY_INTEGRATE = {}


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


def test_cli_import_leaves_out_the_heavy_scipy_subpackages():
    # scipy.integrate pulls in optimize, sparse and linalg, about a third of
    # the import time and peak memory; a fresh interpreter shows what the
    # command line loads
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.linalg"]
    code = ("import json, sys; import starkscatter.cli; "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == []


# the one-point functions, which only their own module may use: every other
# module works on a batch of points in one array call
_ONE_POINT = {"potentials": {"eval_potential", "grad_potential"},
              "classical": {"in_region_X", "free_flow", "gamma_observables",
                            "energy", "mourre_ratio"}}


def _one_point_uses(path: Path, owner: str) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & _ONE_POINT[owner]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "potentials"],
                         ids=lambda p: p.stem)
def test_one_point_potential_functions_stay_in_potentials(path):
    used = _one_point_uses(path, "potentials")
    assert not used, f"{path.name} uses {used}: call the array functions"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "classical"],
                         ids=lambda p: p.stem)
def test_one_point_classical_functions_stay_in_classical(path):
    used = _one_point_uses(path, "classical")
    assert not used, f"{path.name} uses {used}: call the array functions"


def _private_uses(tree: ast.Module) -> set:
    """(module, name) for each _-prefixed name of a package module used,
    imported by name or read as an attribute of an imported module."""
    def package_module(node: ast.ImportFrom):
        if node.level == 1:
            return node.module or ""
        if (node.module or "").startswith("starkscatter."):
            return node.module.partition(".")[2]
        return None

    modules, used = {}, set()
    for node in ast.walk(tree):
        module = (package_module(node) if isinstance(node, ast.ImportFrom)
                  else None)
        if module is not None:
            for alias in node.names:
                if not module:                  # from . import classical
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    used.add((module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


def test_private_use_check_sees_both_forms():
    tree = ast.parse("from . import kernel as k\n"
                     "from .potentials import _FD_STEP, eval_potential_array\n"
                     "k._LN_HALF_SPAN, k.radial_kernel\n")
    assert _private_uses(tree) == {("kernel", "_LN_HALF_SPAN"),
                                   ("potentials", "_FD_STEP")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_uses_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _private_uses(tree)
    assert not used, f"{path.name} uses private names {used}"
