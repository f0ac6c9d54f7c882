"""Static checks on the package source, with the standard library's `ast`:
no module imports a name it does not use, no module-level private name is
left without a reference in its own module, every JSON encoding rejects
NaN and infinity, only the config and the CLI name config keys, every
config key's field is read somewhere besides the config, only the
kernel reads the profile's split point or its pointwise inversion, every
QUADPACK call is the checked one in `kernel._quad_checked`, the ray rule
runs only in `StableProfile.values` and the tail certificate, only
`solver.sample_noise` turns the Levy measure into cell noise
(`noise.cell_base`), every range check goes through `errors.require`, and no module imports scipy when it
is imported.  One run in a fresh interpreter checks that the numpy-only
commands load no scipy module, and that the Monte Carlo (`simulate`,
`moments` and `solver.picard_solve`) loads none after them either.  A
domain table drives NaN, +-inf and the nearest values out of range
through every public numeric parameter."""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyheat import analytics as A
from levyheat import certify as C
from levyheat import estimator as E
from levyheat import kernel as K
from levyheat import noise as N
from levyheat import solver as S
from levyheat import specfun as F
from levyheat.config import _FIELDS, SCHEMA
from levyheat.errors import DomainError

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


def _calls(tree, attr: str, names: set) -> list:
    """(qualified enclosing definition, line) of every call of an attribute
    `.attr` or of a bare name in `names`.  The qualified name runs through
    classes and functions, so a helper nested in a method reads
    `StableProfile.values.inversion`; None at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "attr", None) == attr
                    or getattr(child.func, "id", None) in names):
                found.append((where, child.lineno))
            visit(child, where)

    visit(tree, None)
    return found


def _import_aliases(tree, name: str, module: str | None = None) -> set:
    """The names that `from <module> import name` binds, aliases included;
    any module when `module` is None."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and module in (None, node.module)
            for a in node.names if a.name == name}


def quad_calls(source: str) -> list:
    """Every call of QUADPACK's `quad`, as `_calls` gives it: an attribute
    `.quad`, or a name that `from scipy.integrate import quad` binds."""
    tree = ast.parse(source)
    return _calls(tree, "quad", _import_aliases(tree, "quad", "scipy.integrate"))


def ray_rule_calls(source: str) -> list:
    """Every call of the ray rule `_ray_inversion`, as `_calls` gives it:
    an attribute, the bare name or an import alias."""
    tree = ast.parse(source)
    return _calls(tree, "_ray_inversion",
                  {"_ray_inversion"} | _import_aliases(tree, "_ray_inversion"))


def cell_base_calls(source: str) -> list:
    """Every call of `noise.cell_base`, as `_calls` gives it: an attribute,
    the bare name or an import alias."""
    tree = ast.parse(source)
    return _calls(tree, "cell_base",
                  {"cell_base"} | _import_aliases(tree, "cell_base"))


_ORDERED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _raised_name(node) -> str | None:
    """The class name a `raise` statement raises, called or not."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None))


def range_guards(source: str) -> list:
    """Line numbers of the `if` statements whose test holds an ordered
    comparison (<, <=, >, >=) and whose body raises DomainError or
    ValidationError: a range check written by hand, where `x <= 0` lets
    NaN through, instead of one `errors.require` call."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and any(isinstance(n, ast.Compare)
                and any(isinstance(op, _ORDERED) for op in n.ops)
                for n in ast.walk(node.test))
        and any(isinstance(s, ast.Raise) and s.exc is not None
                and _raised_name(s) in ("DomainError", "ValidationError")
                for s in node.body))


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


def test_one_ray_rule_evaluator():
    # the ray rule runs inside `values`, behind its split at TAIL_START, and
    # in the tail certificate as the inversion the series replaces; a
    # second evaluator could take it where the series belongs
    allowed = ("kernel.StableProfile.values", "certify.check_tail_ratio")
    calls = [f"{path.stem}.{where}" for path in MODULES
             for where, _ in ray_rule_calls(path.read_text())]
    assert [c for c in calls
            if not any(c == a or c.startswith(a + ".") for a in allowed)] == []


def test_one_place_turns_the_measure_into_cell_noise():
    # the compensator and drift reach the cells only through the noise the
    # replicas step with; a second caller would mirror the noise model
    calls = [f"{path.stem}.{where}" for path in MODULES
             for where, _ in cell_base_calls(path.read_text())]
    assert calls == ["solver.sample_noise"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_range_checks_go_through_require(path):
    # `require(lo < x < hi, ...)` is False for NaN; a hand-written
    # `if x <= lo: raise` is not
    assert range_guards(path.read_text()) == []


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
        == [("P.d", 3)]
    assert quad_calls("integrate.quad_vec(f, 0, 1)\nquad(f)\n") == []
    assert ray_rule_calls("class P:\n    def values(self):\n"
                          "        def inv(r):\n"
                          "            return _ray_inversion(a, r)\n") \
        == [("P.values.inv", 4)]
    assert ray_rule_calls("from .kernel import _ray_inversion as ray\n"
                          "def direct(r):\n    return ray(a, [r])\n"
                          "K._ray_inversion(a, r)\n") \
        == [("direct", 3), (None, 4)]
    assert ray_rule_calls("f = K._ray_inversion\n_ray_rule(a, 8, 2.0)\n") == []
    assert cell_base_calls("from .noise import cell_base\n"
                           "def _drift_flow(ms, grid):\n"
                           "    return cell_base(ms.levy, grid.dt, grid.dx)\n") \
        == [("_drift_flow", 3)]
    assert cell_base_calls("from .noise import cell_base as base\n"
                           "class E:\n    def f(self):\n        base(m, 1, 1)\n"
                           "N.cell_base(m, 1, 1)\n") == [("E.f", 4), (None, 5)]
    assert cell_base_calls("f = N.cell_base\ncell_bases(m, 1, 1)\n") == []
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
    assert range_guards('if x <= 0.0:\n    raise DomainError("x")\n') == [1]
    assert range_guards('require(0.0 < x < math.inf, "x", x, "(0, inf)")\n') \
        == []
    assert range_guards("if not 0 < x:\n    pass\n"
                        "    raise errors.ValidationError('x', 'm')\n") == [1]
    assert range_guards("if d != 1:\n    raise DomainError('d')\n"
                        "if x < 0:\n    raise NoRootError('x')\n") == []


# ---------------------------------------------------------------------------
# the domain table

PACKAGE = [importlib.import_module(f"levyheat.{p.stem}") for p in MODULES]


def numeric_parameters() -> set:
    """("module.callable", parameter) for every parameter annotated int or
    float, or defaulting to a number (bool aside), of every public
    function, class and method that a package module defines."""
    found = set()
    for mod in PACKAGE:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            targets = {name: obj}
            if inspect.isclass(obj):
                targets |= {f"{name}.{m}": f for m, f in vars(obj).items()
                            if not m.startswith("_") and inspect.isfunction(f)}
            for tid, func in targets.items():
                found |= {(f"{short}.{tid}", p.name) for p in
                          inspect.signature(func).parameters.values()
                          if p.annotation in (int, float)
                          or type(p.default) in (int, float)}
    return found


KP = K.KernelParams(d=1, alpha=1.5)
CK = K.ComparisonKernel(KP)
MS = A.ModelSpec(kp=KP)
GRID = S.GridSpec(half_width=8.0, n_x=16, horizon=1.0, n_t=4)
TIMES = np.linspace(0.0, 1.0, 11)
SERIES = E.MomentSeries(times=TIMES, sup_mean=np.exp(TIMES), sup_se=0 * TIMES,
                        inf_mean=np.exp(TIMES), inf_se=0 * TIMES, p=2.0,
                        replicas=2)
SURFACE = E.MomentSurface(times=TIMES, x=GRID.x, mean=np.ones((11, 16)),
                          se=np.zeros((11, 16)), p=2.0, replicas=2)
TPOW = {"variant": "truncated_power"}


def renewal(**kw):
    return A.RenewalProblem(**{"c3": 1.0, "c4": 1.0, "horizon": 1.0,
                               "dt": 0.1, "weight": np.exp, **kw})


def picard(**kw):
    return S.picard_solve(MS, GRID, **{"seed": 1, "replicas": 2, "n_iter": 2,
                                       "beta": 1.0, "c": 0.0, "p": 2.0, **kw})


# (callable, parameter, call with the value, domain, nearest values out of
# range); NaN, inf and -inf go through every row.  alpha = 1.5 and d = 1,
# so d/(d+alpha) = 0.4 and 1 + alpha/d = 2.5
DOMAINS = [
    ("analytics.SigmaSpec", "slope", lambda v: A.SigmaSpec(slope=v),
     "(-inf, inf)", ()),
    ("analytics.SigmaSpec", "intercept",
     lambda v: A.SigmaSpec(kind="affine", intercept=v), "(-inf, inf)", ()),
    ("analytics.U0Spec", "value", lambda v: A.U0Spec(value=v), "(-inf, inf)",
     ()),
    ("analytics.U0Spec", "c0", lambda v: A.U0Spec(kind="poly_decay", c0=v),
     "(-inf, inf)", ()),
    ("analytics.U0Spec", "decay_c",
     lambda v: A.U0Spec(kind="poly_decay", decay_c=v), "[0, inf)", (-0.1,)),
    *[("analytics.ConstantsConfig", k,
       lambda v, k=k: A.ConstantsConfig(**{k: v}), "[0, inf)", (-0.1,))
      for k in ("k1", "k2", "k3", "k4", "k5")],
    ("analytics.ModelSpec", "rho", lambda v: A.ModelSpec(kp=KP, rho=v),
     "[0, inf)", (-0.1,)),
    ("analytics.contraction_constant", "beta",
     lambda v: A.contraction_constant(MS, v, 0.0, 1.2), "(0, inf)", (0.0,)),
    ("analytics.contraction_constant", "c",
     lambda v: A.contraction_constant(MS, 4.0, v, 1.2), "[0, alpha)",
     (-0.1, 1.5)),
    ("analytics.contraction_constant", "p",
     lambda v: A.contraction_constant(MS, 4.0, 0.0, v), "[1, 1 + alpha/d)",
     (0.9, 2.5)),
    ("analytics.beta0", "c", lambda v: A.beta0(MS, v, 1.2), "[0, alpha)",
     (-0.1, 1.5)),
    ("analytics.beta0", "p", lambda v: A.beta0(MS, 0.0, v),
     "[1, 1 + alpha/d)", (0.9, 2.5)),
    ("analytics.upper_bounds", "c", lambda v: A.upper_bounds(MS, v, 1.2),
     "[0, alpha)", (-0.1, 1.5)),
    ("analytics.upper_bounds", "p", lambda v: A.upper_bounds(MS, 0.0, v),
     "[1, 1 + alpha/d)", (0.9, 2.5)),
    ("analytics.compute_bounds", "c", lambda v: A.compute_bounds(MS, v, 1.2),
     "[0, alpha)", (-0.1, 1.5)),
    ("analytics.compute_bounds", "p", lambda v: A.compute_bounds(MS, 0.0, v),
     "[1, 1 + alpha/d)", (0.9, 2.5)),
    ("analytics.lower_bound_exponential", "p",
     lambda v: A.lower_bound_exponential(MS, v), "[2, 1 + alpha/d)",
     (1.9, 2.5)),
    ("analytics.subexp_rate", "p", lambda v: A.subexp_rate(KP, v), "(1, 2]",
     (1.0, 2.1)),
    ("analytics.renewal_weight", "p",
     lambda v: A.renewal_weight(KP, MS.levy, v, 1.0, 0.5), "(1, 1 + alpha/d)",
     (1.0, 2.5)),
    ("analytics.renewal_weight", "eps",
     lambda v: A.renewal_weight(KP, MS.levy, 1.2, v, 0.5), "(0, inf)", (0.0,)),
    ("analytics.renewal_weight", "delta",
     lambda v: A.renewal_weight(KP, MS.levy, 1.2, 1.0, v), "[0, inf)",
     (-0.1,)),
    ("analytics.RenewalProblem", "c3", lambda v: renewal(c3=v), "(0, inf)",
     (0.0,)),
    ("analytics.RenewalProblem", "c4", lambda v: renewal(c4=v), "[0, inf)",
     (-0.1,)),
    ("analytics.RenewalProblem", "horizon", lambda v: renewal(horizon=v),
     "(0, inf)", (0.0,)),
    ("analytics.RenewalProblem", "dt", lambda v: renewal(dt=v), "(0, inf)",
     (0.0,)),
    ("certify.default_x_grid", "n", lambda v: C.default_x_grid(n=v),
     "the integers at least 2", (1, 2.5, 4.0)),
    ("certify.default_x_grid", "x_max", lambda v: C.default_x_grid(x_max=v),
     "(0, inf)", (0.0,)),
    *[("certify." + check.__name__, "p", lambda v, check=check: check(CK, v),
       "(d/(d+alpha), 1 + alpha/d)", (0.4, 2.5))
      for check in (C.check_space_conv, C.check_timespace_conv,
                    C.check_timespace_conv_ratio)],
    ("certify.verify_lemmas", "d", lambda v: C.verify_lemmas(d=v), "{1}",
     (2, 1.0)),
    ("certify.verify_lemmas", "alpha", lambda v: C.verify_lemmas(alpha=v),
     "(0, 2)", (0.0, 2.0)),
    ("certify.verify_lemmas", "p", lambda v: C.verify_lemmas(p=v),
     "(d/(d+alpha), 1 + alpha/d)", (0.4, 2.5)),
    ("estimator.simulate_moments", "p",
     lambda v: E.simulate_moments(MS, GRID, v, replicas=2, seed=1),
     "(0, inf)", (0.0, -1.0)),
    ("estimator.simulate_moments", "p",
     lambda v: E.simulate_moments(MS, GRID, (2.0, v), replicas=2, seed=1),
     "(0, inf)", (0.0, -1.0)),
    *[("estimator.simulate_moments", name,
       lambda v, name=name: E.simulate_moments(MS, GRID, 2.0, **{
           "replicas": 2, "seed": 1, name: v}),
       f"the integers at least {low}", (low - 1, 2.5, 4.0))
      for name, low in (("replicas", 2), ("blocks", 2), ("jobs", 1))],
    ("estimator.fit_log_slope", "values",
     lambda v: E.fit_log_slope(TIMES[:6], [1.0, 2.0, 3.0, v, 5.0, 6.0]),
     "(0, inf)", (0.0, -1.0)),
    ("estimator.growth_index_scan", "r",
     lambda v: E.growth_index_scan(SURFACE, (0.1, 0.2), r=v), "(-inf, inf)",
     ()),
    ("estimator.renewal_check", "c3",
     lambda v: E.renewal_check(SERIES, np.exp, v, 1.0), "(0, inf)", (0.0,)),
    ("estimator.renewal_check", "c4",
     lambda v: E.renewal_check(SERIES, np.exp, 1.0, v), "[0, inf)", (-0.1,)),
    ("kernel.KernelParams", "d", lambda v: K.KernelParams(d=v),
     "{1, 2, 3, ...}", (0, 1.5, 4.0)),
    ("kernel.KernelParams", "alpha", lambda v: K.KernelParams(alpha=v),
     "(0, 2)", (0.0, 2.0)),
    *[(f"kernel.{name}", "alpha", make, "(0, 2)", (0.0, 2.0))
      for name, make in (("StableProfile", K.StableProfile),
                         ("get_profile", K.get_profile),
                         ("envelope_constants", K.envelope_constants))],
    ("kernel.q_density", "t", lambda v: K.q_density(KP, v, 1.0), "(0, inf)",
     (0.0,)),
    ("kernel.q_density", "x", lambda v: K.q_density(KP, 1.0, v),
     "(-inf, inf)", ()),
    ("kernel.q_mass_numeric", "t", lambda v: K.q_mass_numeric(KP, v),
     "(0, inf)", (0.0,)),
    ("kernel.ComparisonKernel.g", "t", lambda v: CK.g(v, 1.0), "(0, inf)",
     (0.0,)),
    ("kernel.ComparisonKernel.g_p_numeric", "t",
     lambda v: CK.g_p_numeric(v, 1.0), "(0, inf)", (0.0,)),
    ("kernel.ComparisonKernel.g_p_numeric", "p",
     lambda v: CK.g_p_numeric(1.0, v), "(d/(d+alpha), inf)", (0.4,)),
    ("kernel.minform_kernel", "t", lambda v: K.minform_kernel(KP, v, 1.0),
     "(0, inf)", (0.0,)),
    ("kernel.minform_kernel", "x", lambda v: K.minform_kernel(KP, 1.0, v),
     "(-inf, inf)", ()),
    *[(f"kernel.{func.__name__}", name,
       lambda v, func=func, name=name: func(KP, **{
           "beta": 1.0, "c": 0.0, "p": 1.2, name: v}), domain, near)
      for func in (K.I_formula, K.weighted_kernel_integral)
      for name, domain, near in (("beta", "(0, inf)", (0.0,)),
                                 ("c", "[0, d + alpha)", (-0.1, 2.5)),
                                 ("p", "[1, 1 + alpha/d)", (0.9, 2.5)))],
    ("kernel.hmoment_constant", "p", lambda v: K.hmoment_constant(1, 1.5, v),
     "[0, 1 + alpha/d)", (-0.1, 2.5)),
    ("kernel.levelset_volume_minform", "eps",
     lambda v: K.levelset_volume_minform(1, 1.5, v), "(0, inf)", (0.0,)),
    ("kernel.minform_level_integral", "t",
     lambda v: K.minform_level_integral(KP, v, 1.2, 1.0), "(0, inf)", (0.0,)),
    ("kernel.minform_level_integral", "p",
     lambda v: K.minform_level_integral(KP, 0.5, v, 1.0), "[0, inf)",
     (-0.1,)),
    ("kernel.minform_level_integral", "eps",
     lambda v: K.minform_level_integral(KP, 0.5, 1.2, v), "(0, inf)", (0.0,)),
    ("kernel.h_moment", "eps", lambda v: K.h_moment(KP, v, 1.0), "(0, inf)",
     (0.0,)),
    ("kernel.h_moment", "p", lambda v: K.h_moment(KP, 1.0, v),
     "[0, 1 + alpha/d)", (-0.1, 2.5)),
    ("kernel.g_p_integral", "t", lambda v: K.g_p_integral(CK, v, 1.2),
     "(0, inf)", (0.0,)),
    ("kernel.g_p_integral", "p", lambda v: K.g_p_integral(CK, 1.0, v),
     "(d/(d+alpha), inf)", (0.4,)),
    # (d, alpha, p or eps) with d, then alpha, replaced
    *[(f"kernel.{func.__name__}", name,
       lambda v, func=func, d=d: func(*((v, 1.5) if d else (1, v)), 1.0),
       domain, near)
      for func in (K.hmoment_constant, K.levelset_volume_minform,
                   K.nu_const, K.gamma_conv_constant, K.conv_constants)
      for d, name, domain, near in (
          (True, "d", "{1, 2, 3, ...}", (0, 1.5, 4.0)),
          (False, "alpha", "(0, 2)", (0.0, 2.0)))],
    *[(f"kernel.{func.__name__}", "p",
       lambda v, func=func: func(1, 1.5, v), "(d/(d+alpha), inf)", (0.4,))
      for func in (K.nu_const, K.gamma_conv_constant, K.conv_constants)],
    ("kernel.fourier_power_transform", "a",
     lambda v: K.fourier_power_transform(1, v, 0.0, 1.0), "(0, inf)", (0.0,)),
    ("kernel.fourier_power_transform", "mu",
     lambda v: K.fourier_power_transform(1, 1.0, v, 1.0), "((d-2)/2, inf)",
     (-0.5,)),
    *[(f"kernel.{func.__name__}", name,
       lambda v, func=func, name=name: func(CK, **{
           "t": 1.0, "p": 1.2, "z": 1.0, name: v}), domain, near)
      for func in (K.g_fourier, K.g_fourier_lower)
      for name, domain, near in (("t", "(0, inf)", (0.0,)),
                                 ("p", "(d/(d+alpha), inf)", (0.4,)))],
    ("kernel.g_fourier_lower", "z", lambda v: K.g_fourier_lower(CK, 1, 1.2, v),
     "(-inf, inf)", ()),
    *[(f"kernel.{func.__name__}", name,
       lambda v, func=func, name=name: func(CK, **{
           "p": 1.2, "t": 1.0, "x": 0.5, name: v}), domain, near)
      for func in (K.timespace_conv_gp, K.timespace_conv_gratio)
      for name, domain, near in (
          ("p", "(d/(d+alpha), 1 + alpha/d)", (0.4, 2.5)),
          ("t", "(0, inf)", (0.0,)), ("x", "(-inf, inf)", ()))],
    ("noise.LevyMeasureSpec", "atoms",
     lambda v: N.LevyMeasureSpec(atoms=((1.0, v),)),
     "jumps z != 0 with masses in (0, inf)", (0.0, -1.0)),
    ("noise.LevyMeasureSpec", "atoms",
     lambda v: N.LevyMeasureSpec(atoms=((v, 1.0),)),
     "jumps z != 0 with masses in (0, inf)", (0.0,)),
    ("noise.LevyMeasureSpec", "gamma_exp",
     lambda v: N.LevyMeasureSpec(**TPOW, gamma_exp=v), "(-inf, inf)", ()),
    ("noise.LevyMeasureSpec", "delta_in",
     lambda v: N.LevyMeasureSpec(**TPOW, delta_in=v), "(0, inf)", (0.0,)),
    ("noise.LevyMeasureSpec", "outer_cut",
     lambda v: N.LevyMeasureSpec(**TPOW, outer_cut=v), "(delta_in, inf)",
     (0.1,)),
    ("noise.LevyMeasureSpec", "amplitude",
     lambda v: N.LevyMeasureSpec(**TPOW, amplitude=v), "(0, inf)", (0.0,)),
    ("noise.LevyMeasureSpec.moment", "p", lambda v: MS.levy.moment(v),
     "[0, inf)", (-0.1,)),
    ("noise.LevyMeasureSpec.mass_above", "delta",
     lambda v: MS.levy.mass_above(v), "[0, inf)", (-0.1,)),
    ("noise.LevyMeasureSpec.moment_above", "p",
     lambda v: MS.levy.moment_above(v, 0.5), "[0, inf)", (-0.1,)),
    ("noise.LevyMeasureSpec.moment_above", "delta",
     lambda v: MS.levy.moment_above(2.0, v), "[0, inf)", (-0.1,)),
    ("solver.GridSpec", "half_width", lambda v: S.GridSpec(half_width=v),
     "(0, inf)", (0.0,)),
    ("solver.GridSpec", "horizon", lambda v: S.GridSpec(horizon=v),
     "(0, inf)", (0.0,)),
    ("solver.GridSpec", "n_x", lambda v: S.GridSpec(n_x=v),
     "the powers of two at least 2", (1, 3, 100, 2.5, 4.0)),
    ("solver.GridSpec", "n_t", lambda v: S.GridSpec(n_t=v),
     "the integers at least 1", (0, 2.5, 4.0)),
    ("solver.build_discrete_kernel", "dt",
     lambda v: S.build_discrete_kernel(KP, GRID, v), "(0, inf)", (0.0,)),
    ("solver.picard_solve", "replicas", lambda v: picard(replicas=v),
     "the integers at least 1", (0, 2.5, 4.0)),
    ("solver.picard_solve", "n_iter", lambda v: picard(n_iter=v),
     "the integers at least 2", (1, 2.5, 4.0)),
    ("solver.picard_solve", "beta", lambda v: picard(beta=v), "(0, inf)",
     (0.0,)),
    ("solver.picard_solve", "c", lambda v: picard(c=v), "[0, inf)", (-0.1,)),
    ("solver.picard_solve", "p", lambda v: picard(p=v), "[1, inf)", (0.9,)),
    ("solver.picard_solve", "target_ratio", lambda v: picard(target_ratio=v),
     "(0, 1)", (0.0, 1.0)),
    ("specfun.gamma_fn", "x", F.gamma_fn, "(-inf, inf)", ()),
    ("specfun.lgamma_fn", "x", F.lgamma_fn, "(-inf, inf)", ()),
    ("specfun.beta_fn", "a", lambda v: F.beta_fn(v, 1.0), "(0, inf)", (0.0,)),
    ("specfun.beta_fn", "b", lambda v: F.beta_fn(1.0, v), "(0, inf)", (0.0,)),
    *[(f"specfun.{func.__name__}", name,
       lambda v, func=func, name=name: func(**{
           "a": 0.5, "b": 1.0, "z": 1.0, name: v}), domain, near)
      for func in (F.ml_series, F.mittag_leffler, F.ml_asymptotic)
      for name, domain, near in (
          ("a", "(0, 2)" if func is F.ml_asymptotic else "(0, inf)",
           (0.0, 2.0) if func is F.ml_asymptotic else (0.0,)),
          ("b", "(0, inf)", (0.0,)),
          ("z", "(0, inf)" if func is F.ml_asymptotic else "(-inf, inf)",
           (0.0,) if func is F.ml_asymptotic else ()))],
    ("specfun.ml_series", "max_terms",
     lambda v: F.ml_series(0.5, 1.0, 1.0, max_terms=v),
     "the integers at least 1", (0, 2.5, 4.0)),
    ("specfun.bessel_k", "nu", lambda v: F.bessel_k(v, 1.0), "(-inf, inf)",
     ()),
    ("specfun.bessel_k", "x", lambda v: F.bessel_k(0.5, v), "(0, inf)",
     (-0.5,)),
    # radii, element by element: one bad radius among good ones
    ("kernel.StableProfile.direct", "r", lambda v: K.get_profile(1.5).direct(v),
     "(-inf, inf)", ()),
    *[(f"kernel.StableProfile.{name}", "r",
       lambda v, name=name: getattr(K.get_profile(1.5), name)([1.0, v]),
       "(-inf, inf)", ())
      for name in ("values", "__call__")],
    ("kernel.ComparisonKernel.g", "r", lambda v: CK.g(1.0, [1.0, v]),
     "(-inf, inf)", ()),
    ("analytics.SigmaSpec", "table_x", lambda v: A.SigmaSpec(
        kind="table", table_x=(0.0, v), table_y=(0.0, 1.0)), "(-inf, inf)", ()),
    ("analytics.SigmaSpec", "table_y", lambda v: A.SigmaSpec(
        kind="table", table_x=(0.0, 1.0), table_y=(0.0, v)), "(-inf, inf)", ()),
]

# numeric parameters with no row, each for its reason
EXEMPT = {
    "a result record: its fields are computed, not taken as input": (
        "analytics.BoundsReport", "analytics.WeightTable",
        "certify.LemmaRecord", "certify.VerificationReport",
        "estimator.MomentSurface", "estimator.SlopeFit",
        "estimator.GrowthScan", "estimator.RenewalCheck",
        "kernel.ConvConstants", "solver.DiscreteKernel",
        "solver.PicardReport"),
    "describes how a series was made; `renewal --series` reads a series "
    "from a CSV with p = NaN and replicas = 0": ("estimator.MomentSeries",),
    "a seed or replica index keys the Philox stream modulo 2^64, so every "
    "integer is valid": (
        "cli.dump_trajectory", "cli.trajectory_csv",
        "solver.GridSpec.noise_grid", "solver.run_trajectory",
        "estimator.simulate_moments:seed", "solver.picard_solve:seed"),
    "stepping and sampling internals: they take values derived from a "
    "checked GridSpec or model, once per step or per replica": (
        "solver.mild_step", "solver.sample_noise", "noise.sample_jumps",
        "noise.cell_base", "noise.LevyMeasureSpec.sample_sizes",
        "solver.GridSpec.containment_ok", "analytics.RenewalProblem.grid"),
    "a check's lower bound, a literal at every call site": (
        "errors.is_count:low",),
    "closed forms valid at every argument their Gamma call takes; NaN and "
    "+-inf raise a DomainError there, naming the Gamma argument x": (
        "kernel.omega_d", "kernel.kappa_const", "kernel.tail_coefficient",
        "kernel.fourier_power_transform:d"),
}


def _exempt(callable_id, name) -> bool:
    return any(entry in (callable_id, f"{callable_id}:{name}")
               for entries in EXEMPT.values() for entry in entries)


def test_every_numeric_parameter_has_a_domain():
    # a new public numeric parameter needs a row or a stated exemption,
    # and an exemption names a callable that takes one
    rows = {(row[0], row[1]) for row in DOMAINS}
    found = numeric_parameters()
    assert sorted(p for p in found if p not in rows and not _exempt(*p)) == []
    listed = {entry for entries in EXEMPT.values() for entry in entries}
    assert sorted(e for e in listed if not any(
        e in (cid, f"{cid}:{name}") for cid, name in found)) == []


def test_counts_take_numpy_integers():
    # a count is an integer, a numpy integer included, and means the same
    # either way
    n = np.int64
    grid = S.GridSpec(half_width=8.0, n_x=n(16), horizon=1.0, n_t=np.int32(4))
    assert grid == GRID and K.KernelParams(d=n(1)) == K.KernelParams(d=1)
    assert C.default_x_grid(n(5)) == C.default_x_grid(5)
    assert F.ml_series(0.5, 1.0, 1.0, max_terms=n(50)) == \
        F.ml_series(0.5, 1.0, 1.0, max_terms=50)
    for want, got in zip(
            E.simulate_moments(MS, GRID, (1.2, 2.0), 3, 1, blocks=2, jobs=2),
            E.simulate_moments(MS, grid, (1.2, 2.0), n(3), 1, blocks=n(2),
                               jobs=n(2))):
        assert np.array_equal(want[1].mean, got[1].mean)
        assert np.array_equal(want[1].se, got[1].se)
    assert np.array_equal(picard(replicas=n(2), n_iter=n(3)).log_d,
                          picard(replicas=2, n_iter=3).log_d)


@pytest.mark.parametrize("row", DOMAINS,
                         ids=[f"{r[0]}:{r[1]}-{i}" for i, r in
                              enumerate(DOMAINS)])
def test_domain_table(row):
    callable_id, name, call, domain, near = row
    for value in (math.nan, math.inf, -math.inf, *near):
        with pytest.raises(DomainError) as err:
            call(value)
        assert getattr(err.value, "key_path", None) == name, value
        assert f"must lie in {domain}" in err.value.message, value
