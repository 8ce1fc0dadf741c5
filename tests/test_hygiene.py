"""Package hygiene: the public names resolve, no module imports dead names,
no module imports scipy and the package loads none, one-point functions stay
in their own module, no module reaches into another's private names and
every private definition is used somewhere in the package."""

import ast
import json
import re
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


def _scipy_imports(tree: ast.Module) -> set:
    """Every scipy module or name the module imports, dotted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names
                      if a.name.partition(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").partition(".")[0] == "scipy":
                names |= {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_scipy_import_check_sees_every_form():
    tree = ast.parse("import scipy\nimport scipy.special as sp\n"
                     "from scipy import fft\n"
                     "from scipy.integrate import quad\nimport numpy.fft\n")
    assert _scipy_imports(tree) == {"scipy", "scipy.special", "scipy.fft",
                                    "scipy.integrate.quad"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_integrate_only_where_allowed(path):
    # no module may: orbits step in classical's own DOP853 and verify-all's
    # c1 oracle is a tanh-sinh rule
    tree = ast.parse(path.read_text(), filename=str(path))
    extra = {n for n in _scipy_imports(tree)
             if n.startswith("scipy.integrate")}
    assert not extra, f"{path.name} imports scipy.integrate names {extra}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_no_scipy(path):
    # Ai, loggamma and the FFTLog are numpy code; scipy is a test oracle only
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _scipy_imports(tree)
    assert not names, f"{path.name} imports {names}"


def test_cli_import_leaves_out_the_heavy_scipy_subpackages():
    # a fresh interpreter shows what the command line loads: no scipy module
    # at all, and numpy's fft and random, which the library uses, at import
    # rather than lazily inside a run
    code = ("import json, sys; import starkscatter.cli; "
            "print(json.dumps([sorted(m for m in sys.modules "
            "if m.startswith('scipy')), "
            "[m in sys.modules for m in ('numpy.fft', 'numpy.random')]]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [[], [True, True]]


def test_runs_import_nothing_the_cli_import_left_out(tmp_path):
    # a module first imported inside a run costs the run its import time,
    # outside every stage span
    root = Path(starkscatter.__file__).parents[2]
    code = f"""
import contextlib, io, json, sys
import numpy as np
import starkscatter.cli as cli
from starkscatter import PhasePoint, classical, coulomb
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify-all", "--config",
                       {str(root / "configs")!r} + "/" + name + ".json",
                       {"--output_dir=" + str(tmp_path)!r}])
             for name in ("zero", "coulomb_d3")]
spec, p0 = coulomb(0.1), PhasePoint(20.0, [1.0], 6.0, [0.1])
traj = classical.integrate_orbit(spec, p0, 1e4, tol=1e-10,
                                 t_eval=np.geomspace(1.0, 1e4, 40))
classical.decay_slope(traj, "Gamma_norm", (1e2, 1e4))
classical.asymptotic_momentum(spec, p0)
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    codes, imported = json.loads(out.stdout)
    assert codes == [0, 0]
    assert imported == []


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


def _private_definitions(tree: ast.Module) -> set:
    """The _-prefixed functions, classes and constants a module defines at
    its top level, dunder names left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring nodes of the module and its definitions."""
    ids = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                and node.body):
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                ids.add(id(first.value))
    return ids


def _uses(tree: ast.Module) -> set:
    """Every name the module reads, every attribute it reads and every word
    of its string literals but the docstrings: generated source names the
    helpers it calls."""
    docstrings = _docstrings(tree)
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            words |= set(re.findall(r"\w+", node.value))
    return words


def test_dead_code_check_sees_every_use():
    tree = ast.parse('"""_in_the_docstring"""\n'
                     "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                     "def _f():\n    '''_E'''\n    return _A\n"
                     "class _G:\n    pass\n"
                     "def _in_the_docstring():\n    pass\n"
                     "source = f'{_A} = _B.x(_G)'\nm._C\n")
    assert _private_definitions(tree) == {"_A", "_B", "_C", "_f", "_G",
                                          "_in_the_docstring"}
    assert _private_definitions(tree) - _uses(tree) == {
        "_f", "_in_the_docstring"}


def test_every_private_definition_is_used_in_src():
    # a helper that only the tests call is dead code of the library
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in Path(starkscatter.__file__).parent.glob("*.py")}
    used = set().union(*[_uses(tree) for tree in trees.values()])
    dead = {name: sorted(_private_definitions(tree) - used)
            for name, tree in trees.items()}
    dead = {name: names for name, names in dead.items() if names}
    assert not dead, f"unused private definitions: {dead}"


def _force_law_inputs(tree: ast.Module) -> set:
    """The inputs of the force law a module reads itself: an attribute named
    softening, and EXCLUSION_RADIUS imported or read as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("softening", "EXCLUSION_RADIUS")
                and isinstance(node.ctx, ast.Load)):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.rpartition(".")[2] for a in node.names} & {
                "EXCLUSION_RADIUS"}
    return found


def test_force_law_input_check_sees_every_form():
    tree = ast.parse("from .potentials import EXCLUSION_RADIUS as R\n"
                     "from . import potentials\n"
                     "s = spec.softening ** 2\n"
                     "r = potentials.EXCLUSION_RADIUS\n"
                     "spec.kappa, cfg['softening']\n"
                     "coulomb(kappa, softening=softening)\n")
    assert _force_law_inputs(tree) == {"softening", "EXCLUSION_RADIUS"}
    assert _force_law_inputs(ast.parse(
        "spec.kappa, cfg['softening']\n"
        "coulomb(kappa, softening=softening)\n")) == set()


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "potentials"],
                         ids=lambda p: p.stem)
def test_force_law_inputs_stay_in_potentials(path):
    # potentials owns the force law: force_law gives its constants and
    # force_rows evaluates it, so no other module reads the softening or
    # the exclusion radius
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _force_law_inputs(tree)
    assert not found, f"{path.name} reads {found}: call potentials.force_law"
