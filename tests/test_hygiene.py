"""Static checks on the package source, with the standard library's `ast`:
no module imports a name it does not use, no module-level private name is
left without a reference in its own module, every JSON encoding rejects
NaN and infinity, only the config and the CLI name config keys, every
config key's field is read somewhere besides the config, only the
kernel reads the profile's split point or its pointwise inversion, every
QUADPACK call is the checked one in `kernel._quad_checked`, and no module
imports scipy when it is imported.  One run in a fresh interpreter
checks that the numpy-only commands load no scipy module, and that the
Monte Carlo (`simulate`, `moments` and `solver.picard_solve`) loads none
after them either."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levyheat.config import _FIELDS, SCHEMA

SRC = Path(__file__).resolve().parent.parent / "src" / "levyheat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _read_names(tree) -> set:
    """Every name the module reads, the roots of attribute chains included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
    return sorted(bound - _read_names(tree))


def unreferenced_privates(source: str) -> list:
    """Module-level `_private` functions, classes and constants that
    nothing in the module reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            defined.add(node.target.id)
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    return sorted(private - _read_names(tree))


def lenient_json_calls(source: str) -> list:
    """Line numbers of `json.dump`/`json.dumps` calls that do not pass
    `allow_nan=False`, so could write NaN or Infinity, which standard JSON
    parsers reject."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and node.func.attr in ("dump", "dumps")
        and not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in node.keywords))


def key_literals(source: str, keys) -> list:
    """String literals of the module equal to one of `keys`, in order."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in keys]


def attribute_reads(source: str) -> set:
    """Names the module reads as an attribute, `obj.name`; a read by name,
    `getattr(obj, "name")`, is not one."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def profile_internals(source: str) -> list:
    """Line numbers where the module reads `TAIL_START` (bare, imported or
    as an attribute) or a `.direct` attribute: the stable profile's split
    and its pointwise inversion, which `StableProfile.values` owns."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "TAIL_START")
        or (isinstance(node, ast.ImportFrom)
            and any(a.name == "TAIL_START" for a in node.names))
        or (isinstance(node, ast.Attribute)
            and node.attr in ("TAIL_START", "direct")))


def quad_calls(source: str) -> list:
    """(innermost enclosing function, line) of every call of QUADPACK's
    `quad`: an attribute `.quad`, or a name that `from scipy.integrate
    import quad` binds (aliases included)."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "scipy.integrate"
             for a in node.names if a.name == "quad"}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Attribute)
                    and child.func.attr == "quad"
                    or isinstance(child.func, ast.Name)
                    and child.func.id in names):
                found.append((where, child.lineno))
            visit(child, where)

    visit(tree, None)
    return found


def import_time_imports(source: str, package: str) -> list:
    """Line numbers of the imports of `package` or its submodules that run
    when the module is imported: anywhere outside a function body."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(n == package or n.startswith(package + ".") for n in names):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    assert unreferenced_privates(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_rejects_nan(path):
    assert lenient_json_calls(path.read_text()) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("config.py", "cli.py")],
    ids=lambda p: p.name)
def test_only_config_and_cli_name_config_keys(path):
    # a model class names its own field; the config maps it to the key
    assert key_literals(path.read_text(), SCHEMA) == []


def test_every_config_field_is_read():
    # a setting that no code reads by name changes nothing but the config
    # hash; `reject_unread` and `assumptions()` read fields through
    # `getattr`, which does not count
    read = set().union(*(attribute_reads(p.read_text()) for p in MODULES
                         if p.name != "config.py"))
    assert sorted(key for key, (_, _, name) in _FIELDS.items()
                  if name not in read) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "kernel.py"], ids=lambda p: p.name)
def test_only_the_kernel_splits_the_profile(path):
    # other modules take the profile's exact values from
    # `StableProfile.values`, so its split, clip and alpha = 1 branch are
    # written once
    assert profile_internals(path.read_text()) == []


def test_one_quadpack_call_site():
    # every QUADPACK integral reads its error estimate through the one
    # checked wrapper
    calls = [(path.name, where) for path in MODULES
             for where, _ in quad_calls(path.read_text())]
    assert calls == [("kernel.py", "_quad_checked")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_at_import(path):
    # scipy is imported by the functions that call it, so the commands
    # that need only numpy start without it
    lines = import_time_imports(path.read_text(), "scipy")
    assert lines == [], f"{path.name} imports scipy at import time, line(s) {lines}"


NUMPY_ONLY_RUN = """
import sys
import levyheat.cli as cli
out = sys.argv[1]
for argv in (["renewal", "--weight", "exp:1,1", "--out", out],
             ["bounds", "--out", out],
             ["specfun", "eval", "--fn", "ml", "--a", "0.5", "--b", "1",
              "--z", "1"],
             ["specfun", "eval", "--fn", "gamma", "--x", "1.5"],
             ["specfun", "eval", "--fn", "beta", "--a", "1", "--b", "2"]):
    assert cli.main(argv) == 0, argv
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
numpy_only = loaded()
assert cli.main(["simulate", "--nx", "32", "--nt", "10", "--replicas", "2",
                 "--out", out]) == 0
assert cli.main(["moments", "--nx", "64", "--nt", "20", "--replicas", "2",
                 "--out", out]) == 0
# a grid of its own, so its kernel is built cold too
from levyheat.config import ExperimentConfig
from levyheat.solver import picard_solve
cfg = ExperimentConfig()
cfg.set("grid.nx", "16")
cfg.set("grid.nt", "10")
picard_solve(cfg.build_model(), cfg.build_grid(), seed=1, replicas=2,
             n_iter=2, beta=1.0, c=0.0, p=2.0)
print(numpy_only, loaded())
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    path = os.environ.get("PYTHONPATH")
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_RUN, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent) + (
            os.pathsep + path if path else "")})
    assert done.returncode == 0, done.stderr
    # no scipy for the numpy-only commands, nor for the Monte Carlo: it
    # builds no spline, runs no QUADPACK, sums the kernel's images in numpy
    # and reads no slope CI
    assert done.stdout.splitlines()[-1] == "[] []"
    for name in ("renewal.csv", "bounds.json", "simulate.json", "moments_p2.csv"):
        assert (tmp_path / name).exists(), name


def test_checkers_catch_leftovers():
    assert unused_imports("import math\nx = 1\n") == ["math"]
    assert unused_imports("from .solver import heat_step as hs\nhs()\n") == []
    assert unreferenced_privates("def _helper():\n    pass\n") == ["_helper"]
    assert unreferenced_privates("_N = 2\ny = _N\n") == []
    assert lenient_json_calls("import json\njson.dumps(x)\n") == [2]
    assert lenient_json_calls("json.dump(x, fh, allow_nan=True)\n") == [1]
    assert lenient_json_calls("json.dumps(x, allow_nan=False)\n") == []
    assert key_literals('raise E("grid.nx", "n")\n', SCHEMA) == ["grid.nx"]
    assert key_literals('raise E("n_x", "grid.nx: n")\n', SCHEMA) == []
    assert attribute_reads("x = spec.k1\ny = getattr(spec, 'c1_g')\n"
                           "spec.c2_g = 1\n") == {"k1"}
    assert profile_internals("from .kernel import TAIL_START, tail\n") == [1]
    assert profile_internals("r = K.TAIL_START\nprof.direct(r)\n") == [1, 2]
    assert profile_internals("f = get_profile(a).direct\nx < TAIL_START\n") \
        == [1, 2]
    assert profile_internals("prof.values(r)\nTAIL_TERMS\ndirect = 1\n") == []
    assert quad_calls("def f():\n    g = lambda: integrate.quad(h, 0, 1)\n") \
        == [("f", 2)]
    assert quad_calls("from scipy.integrate import quad as q\nq(f, 0, 1)\n") \
        == [(None, 2)]
    assert quad_calls("class P:\n    def d(self):\n"
                      "        return scipy.integrate.quad(f, 0, 1)\n") \
        == [("d", 3)]
    assert quad_calls("integrate.quad_vec(f, 0, 1)\nquad(f)\n") == []
    assert import_time_imports("import scipy.special\n", "scipy") == [1]
    assert import_time_imports("from scipy import integrate\n", "scipy") == [1]
    assert import_time_imports("try:\n    import scipy\nexcept E:\n    pass\n",
                               "scipy") == [2]
    assert import_time_imports("class K:\n    from scipy.special import kv\n",
                               "scipy") == [2]
    assert import_time_imports("def f():\n    from scipy.special import kv\n",
                               "scipy") == []
    assert import_time_imports("import scipyx\nfrom .scipy import a\n",
                               "scipy") == []
