"""Package hygiene: the public names resolve, no module imports dead names,
no module imports scipy and the package loads none (nor fractions or
decimal), a verification run loads no numpy.random, the orbit path makes no
LAPACK call, one-point functions stay in their own module, removed names
stay removed, the benchmark's entry points and the README's library example
still work, no module reaches into another's private names and every
private definition is used somewhere in the package."""

import ast
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkscatter
from starkscatter import PhasePoint, classical, coulomb, eval_potential

MODULES = sorted(p for p in Path(starkscatter.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(starkscatter.__file__).parents[2]


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
    # no module may: orbits are classical's own collocation and verify-all's
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


# numpy.random brings secrets and OpenSSL's hashlib with it: 6 MB of RSS
# for a seeded stream that checks.SplitMix64 gives in numpy arithmetic
_RANDOM_MODULES = ("numpy.random", "secrets", "hashlib", "_hashlib")


def test_cli_import_leaves_out_the_heavy_scipy_subpackages():
    # a fresh interpreter shows what the command line loads: no scipy module
    # at all, no argparse (nor the gettext and locale it brings), no
    # numpy.polynomial and no numpy.random, no fractions or decimal (the
    # CSV writer's powers of ten come from Python ints), and numpy's fft,
    # which the library uses, at import rather than lazily inside a run
    absent = ("argparse", "gettext", "locale", "numpy.polynomial",
              *_RANDOM_MODULES, "fractions", "decimal")
    code = ("import json, sys; import starkscatter.cli; "
            "print(json.dumps([sorted(m for m in sys.modules "
            "if m.startswith('scipy')), "
            f"[m in sys.modules for m in {absent + ('numpy.fft',)!r}]]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [[], [False] * len(absent) + [True]]


def test_verify_run_loads_no_random_stream_module(tmp_path):
    # a stage that imported numpy.random lazily would put its 6 MB and
    # about 10 ms into the run
    config = Path(starkscatter.__file__).parents[2] / "configs" / "zero.json"
    code = f"""
import contextlib, io, json, sys
import starkscatter.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-all", "--config", {str(config)!r},
                     {"--output_dir=" + str(tmp_path)!r}])
print(json.dumps([code, [m for m in {_RANDOM_MODULES!r} if m in sys.modules]]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [0, []]


@pytest.mark.parametrize("d", [2, 3])
def test_orbit_path_makes_no_lapack_call(monkeypatch, d):
    # the first LAPACK call costs a process about 1 MB of peak RSS: one
    # orbit as the benchmark runs it (integrate to t = 1e4, both decay fits,
    # extrapolate) with every gufunc behind numpy.linalg made to raise
    from numpy.linalg import _umath_linalg

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in dir(_umath_linalg):
        if isinstance(getattr(_umath_linalg, name), np.ufunc):
            monkeypatch.setattr(_umath_linalg, name, refuse)
    with pytest.raises(AssertionError, match="LAPACK called"):
        np.linalg.lstsq(np.eye(2), np.ones(2), rcond=None)

    spec = coulomb(0.1, softening=1e-3)
    x0, y0, zeta0 = 20.0, np.full(d - 1, 0.5), np.full(d - 1, 0.1)
    eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                     - float(zeta0 @ zeta0))    # zero energy
    p0 = PhasePoint(x0, y0, eta0, zeta0)
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 160)])
    traj = classical.integrate_orbit(spec, p0, 1e4, tol=1e-12, t_eval=t_eval)
    for observable in ("Gamma_norm", "gamma_par"):
        classical.decay_slope(traj, observable, (1e2, 1e4))
    classical.asymptotic_momentum(spec, p0)


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
# module works on a batch of points in one array call.  classical's two are
# deleted and stay out of use; its batched forms took the plain names
# free_flow, energy and gamma_observables
_ONE_POINT = {"potentials": {"eval_potential"},
              "classical": {"in_region_X", "mourre_ratio"}}


def _imported_or_read(path: Path) -> set:
    """The names a module imports by name or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "potentials"],
                         ids=lambda p: p.stem)
def test_one_point_potential_functions_stay_in_potentials(path):
    used = _imported_or_read(path) & _ONE_POINT["potentials"]
    assert not used, f"{path.name} uses {used}: call the array functions"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "classical"],
                         ids=lambda p: p.stem)
def test_one_point_classical_functions_stay_in_classical(path):
    used = _imported_or_read(path) & _ONE_POINT["classical"]
    assert not used, f"{path.name} uses {used}: call cone_mask"


# one-point forks of batched computations, the old names of the batched
# forms, the copies of the closed forms that exact_phase and
# born_symbol_tail now own, and the CLI's pre-flight copies of the checks
# that born_symbols and radial_kernel make themselves (with the helpers
# they left with one caller): each computation has one public name
_REMOVED = ("symbol_b", "symbol_q", "born_symbol", "grad_potential",
            "in_region_X", "mourre_ratio", "asymptotic_convergence",
            "eigenfunction_sample", "EigenfunctionSample",
            "gamma_observables_arrays", "free_flow_arrays", "_energies",
            "theta1_calculus", "theta1_value", "theta_calculus", "PhaseData",
            "homogeneous_symbol_asymptote", "brent_minimum", "check_profile",
            "born_domain", "_check_blocks", "_born_inputs", "_profile_radii")


def test_removed_names_stay_removed():
    # neither defined or re-exported anywhere in the package, nor called
    modules = [starkscatter] + [
        importlib.import_module(f"starkscatter.{p.stem}") for p in MODULES]
    back = [f"{m.__name__}.{name}" for m in modules for name in _REMOVED
            if hasattr(m, name)]
    back += [f"{p.name} uses {name}" for p in MODULES
             for name in sorted(_imported_or_read(p) & set(_REMOVED))]
    assert not back, f"removed names are back: {back}"


# the result records, tuples of results in their documented field order
_RECORDS = {
    "kernel.KernelFit": (
        "exponent", "exponent_stderr", "prefactor_modulus",
        "prefactor_stderr", "subleading", "subleading_stderr", "k_window",
        "residual_rms", "half_sample_change", "k", "values", "model"),
    "special.KernelLaw": ("prefactor", "exponent"),
    "transport.SymbolResult": ("value", "q", "tail_estimate", "quad_error",
                               "residual"),
    "classical.GammaObservables": ("gamma", "gamma_tilde", "gamma_par",
                                   "Gamma_norm"),
    "parabolic.ParabolicPoint": ("f", "g"),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_result_records_are_named_tuples(name):
    module, _, cls = name.partition(".")
    record = getattr(importlib.import_module(f"starkscatter.{module}"), cls)
    assert issubclass(record, tuple)
    assert record._fields == _RECORDS[name]


def test_dataclass_only_where_a_type_validates_or_owns_state():
    decorated = {f"{p.stem}.{node.name}" for p in MODULES
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.ClassDef)
                 and any("dataclass" in ast.unparse(d)
                         for d in node.decorator_list)}
    assert decorated == {"classical.PhasePoint", "classical.Trajectory",
                         "potentials.PotentialSpec"}


def _assigned_literal(tree: ast.Module, name: str):
    """The literal value of the top-level assignment to name."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name}")


def _benchmark_names() -> set:
    """(module, name) for every package name the benchmark calls: the
    worker's imports from starkscatter and its classical.<name> and
    cli.<name> reads, the runner's stage spans and the tracer's layers and
    private CLI functions."""
    bench = ROOT / "bench"
    names = set()
    worker = ast.parse((bench / "worker.py").read_text())
    for node in ast.walk(worker):
        if isinstance(node, ast.ImportFrom) and node.module == "starkscatter":
            names |= {("", a.name) for a in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in ("classical", "cli")):
            names.add((node.value.id, node.attr))
    stages = _assigned_literal(ast.parse((bench / "run.py").read_text()),
                               "STAGES")
    names |= {tuple(span.split(".")) for span in stages}
    tracer = ast.parse((bench / "tracer.py").read_text())
    names |= {(layer, "") for layer in _assigned_literal(tracer, "LAYERS")}
    names |= {("cli", name)
              for name in _assigned_literal(tracer, "CLI_PRIVATE")}
    return names


def test_benchmark_entry_points_resolve():
    # an API change that removed one of these would turn a benchmark
    # workload into failed runs, not into a failing test
    names = _benchmark_names()
    assert {("", "PhasePoint"), ("classical", "integrate_orbit"),
            ("cli", "main"), ("cli", "cmd_eikonal"),
            ("cli", "_emit"), ("potentials", "")} <= names
    missing = []
    for module, name in sorted(names):
        owner = (importlib.import_module(f"starkscatter.{module}") if module
                 else starkscatter)
        if name and not hasattr(owner, name):
            missing.append(f"{module or 'starkscatter'}.{name}")
    assert not missing, f"the benchmark calls missing names: {missing}"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", example, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


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


def _definitions(tree: ast.Module) -> set:
    """The functions, classes and constants a module defines at its top
    level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def _private_definitions(tree: ast.Module) -> set:
    """The _-prefixed top-level definitions, dunder names left out."""
    return {n for n in _definitions(tree)
            if n.startswith("_") and not n.startswith("__")}


def _public_definitions(tree: ast.Module) -> set:
    """The top-level definitions without a leading underscore."""
    return {n for n in _definitions(tree) if not n.startswith("_")}


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


def _unused(definitions, exported=()) -> dict:
    """By module, the definitions(tree) that no module of src/ uses and
    that are not in exported."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in Path(starkscatter.__file__).parent.glob("*.py")}
    used = set().union(*[_uses(tree) for tree in trees.values()],
                       exported)
    dead = {name: sorted(definitions(tree) - used)
            for name, tree in trees.items()}
    return {name: names for name, names in dead.items() if names}


def test_public_definition_check_sees_every_form():
    tree = ast.parse("A, _B = 1, 2\nC: int = 3\n__all__ = ['D']\n"
                     "def e():\n    return A\nclass F:\n    pass\n")
    assert _public_definitions(tree) == {"A", "C", "e", "F"}
    assert _public_definitions(tree) - _uses(tree) == {"C", "e", "F"}


def test_every_private_definition_is_used_in_src():
    # a helper that only the tests call is dead code of the library
    dead = _unused(_private_definitions)
    assert not dead, f"unused private definitions: {dead}"


def test_every_public_definition_is_exported_or_used_in_src():
    # a public name that the package does not export and src/ does not call
    # is an API for the tests alone
    dead = _unused(_public_definitions, starkscatter.__all__)
    assert not dead, f"public definitions neither exported nor used: {dead}"


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
    # potentials owns the force law: force_rows evaluates it, so no other
    # module reads the softening or the exclusion radius
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _force_law_inputs(tree)
    assert not found, f"{path.name} reads {found}: call potentials.force_rows"
