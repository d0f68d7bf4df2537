"""Importing the package: no scipy at start-up, each subcommand loads only
the modules it runs, every public name resolves, the test-only
references stay out of the package, input enters the simulation one
way, the two-pass law has one closed form, and no module-level cache
holds a comb response.

scipy.integrate is imported only inside the one quadrature,
``train.broadened_A_coefficients``, and ``afcsim.reproduce`` only by
the ``reproduce`` subcommand.  Reading a configuration imports no numpy.
The import checks run in a fresh interpreter, since the test process
itself has imported everything.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import afcsim

# Independent references that live in tests/oracles.py, not the package.
ORACLES = ("lorentzian_convolution", "kramers_kronig", "coefficients_numeric")

CHILD = """
import json, math, sys

states = {}
import afcsim, afcsim.cli
states["after_import"] = "scipy" in sys.modules
states["reproduce_after_import"] = "afcsim.reproduce" in sys.modules
states["train_exit"] = afcsim.cli.main(
    ["--config", sys.argv[1], "--out", sys.argv[2], "train"]
)
states["after_train"] = "scipy" in sys.modules
from afcsim.train import broadened_A_coefficients
coefficients = broadened_A_coefficients(0.2, gamma=0.01, pair_count=9)
states["finite"] = all(
    math.isfinite(v)
    for v in (coefficients.a0, coefficients.a1_absorption, coefficients.a1_full)
)
states["after_quadrature"] = "scipy" in sys.modules
print(json.dumps(states))
"""


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this afcsim."""
    src = str(Path(afcsim.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )


def test_cli_runs_without_scipy(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("samples = 2048\n")
    done = _fresh(CHILD, str(config), str(tmp_path))
    assert done.returncode == 0, done.stderr
    states = json.loads(done.stdout.splitlines()[-1])
    assert states["after_import"] is False
    assert states["reproduce_after_import"] is False
    assert states["train_exit"] == 0
    assert states["after_train"] is False
    assert (tmp_path / "train.csv").exists()
    # the quadrature path still imports scipy on first use and works
    assert states["finite"] is True
    assert states["after_quadrature"] is True


# One command-line run: what ``import afcsim`` loads, then the run's exit
# code and what it loaded, written as JSON to the first argument.
RUN_CHILD = """
import json, sys

result, *argv = sys.argv[1:]
import afcsim

package = sorted(name for name in sys.modules if name.startswith("afcsim"))
package_numpy = "numpy" in sys.modules
from afcsim.cli import main

try:
    code = main(argv)
except SystemExit as exc:
    code = exc.code
with open(result, "w") as handle:
    json.dump(
        {
            "package": package,
            "package_numpy": package_numpy,
            "code": code,
            "modules": sorted(
                name.removeprefix("afcsim.")
                for name in sys.modules
                if name.startswith("afcsim.")
            ),
            "numpy": "numpy" in sys.modules,
            "scipy": "scipy" in sys.modules,
        },
        handle,
    )
"""

# The modules each kind of run loads, beyond the package itself.
CONFIG = {"cli", "combs", "output"}
SPECTRAL = CONFIG | {"propagation", "susceptibility"}
RECALL = SPECTRAL | {"protocols", "train"}
SWEEP = RECALL | {"sweeps"}
# A grid small enough to keep each simulated run short.
SMALL = "samples = 2048\n"


@pytest.mark.parametrize(
    ("argv", "config", "code", "modules"),
    [
        (["config"], None, 0, CONFIG),
        (["config"], "d_p = 12.0\n", 0, CONFIG),
        (["--help"], None, 0, CONFIG),
        # refused: a key that spectrum does not read, then a malformed value
        (["spectrum"], "samples = 100\n", 1, CONFIG),
        (["train"], "finesse = five\n", 1, CONFIG),
        (["spectrum"], None, 0, SPECTRAL),
        (["transfer"], SMALL, 0, SPECTRAL),
        (["propagate"], SMALL, 0, RECALL),
        (["train"], SMALL, 0, RECALL),
        (["protocol"], SMALL, 0, RECALL),
        (["sweep"], None, 0, SWEEP),
        (["reproduce"], None, 0, SWEEP | {"reproduce"}),
    ],
    ids=[
        "config",
        "config-file",
        "help",
        "refused-unread",
        "refused-value",
        "spectrum",
        "transfer",
        "propagate",
        "train",
        "protocol",
        "sweep",
        "reproduce",
    ],
)
def test_each_run_loads_only_its_modules(tmp_path, argv, config, code, modules):
    options = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        options += ["--config", str(path)]
    result = tmp_path / "loaded.json"
    done = _fresh(RUN_CHILD, str(result), *options, *argv)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(result.read_text())
    # the package imports none of its modules until a name is read
    assert loaded["package"] == ["afcsim"]
    assert loaded["package_numpy"] is False
    assert loaded["code"] == code, done.stderr
    assert set(loaded["modules"]) == modules
    # reading and refusing a configuration starts no numerics
    assert loaded["numpy"] is (modules != CONFIG)
    assert loaded["scipy"] is False


# The modules whose public names the package re-exports, in import order.
PUBLIC_MODULES = ("combs", "propagation", "protocols", "susceptibility", "sweeps", "train")


def test_public_names_resolve_once():
    # each public name is declared once, in its module's __all__; the
    # package's list is the modules' lists, end to end
    modules = [importlib.import_module(f"afcsim.{m}") for m in PUBLIC_MODULES]
    names = afcsim.__all__
    assert names == [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names) == 54
    for module in modules:
        for name in module.__all__:
            assert getattr(afcsim, name) is getattr(module, name), name
    # Probe is the only input path, and the transfer is a plain array
    for gone in ("transmit", "propagate", "TransferFunction"):
        assert gone not in names
        with pytest.raises(AttributeError):
            getattr(afcsim, gone)


def test_oracles_are_not_in_the_package():
    for name in ORACLES:
        assert name not in afcsim.__all__
        for info in pkgutil.iter_modules(afcsim.__path__):
            module = importlib.import_module(f"afcsim.{info.name}")
            assert not hasattr(module, name), (info.name, name)
            assert name not in getattr(module, "__all__", ()), (info.name, name)


def test_closed_forms_do_not_import_the_simulator():
    # the closed forms and the simulation check each other, so neither
    # may be built on the other
    tree = ast.parse(Path(afcsim.__file__).with_name("train.py").read_text())
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is None:
            sources.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            sources.add("." * node.level + node.module)
        elif isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
    assert ".susceptibility" in sources
    assert not {".propagation", "afcsim.propagation"} & sources, sources


def _callers(tree: ast.AST, callee: str) -> set[str]:
    """Dotted names of the functions and methods in ``tree`` that call ``callee``.

    A call at module level is attributed to ``""``.
    """
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == callee:
                    found.add(scope)
            visit(child, scope)

    visit(tree, "")
    return found


def test_probe_is_the_only_input_path():
    # every input spectrum and input peak comes from a Probe, and recall
    # is the one simulation pipeline: only it and its second pass send a
    # spectrum to the time domain, and only it reads trains
    package = Path(afcsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}

    def sites(callee: str) -> set[tuple[str, str]]:
        return {
            (module, scope)
            for module, tree in trees.items()
            for scope in _callers(tree, callee)
        }

    assert {module for module, _ in sites("gaussian_spectrum")} == {"propagation"}
    inverse = {site for site in sites("spectrum_to_signal") if site[0] != "propagation"}
    assert inverse == {("protocols", "recall"), ("protocols", "_second_pass")}
    assert sites("extract_train") == {("protocols", "recall")}
    transfers = {("protocols", "recall"), ("cli", "cmd_transfer")}
    assert sites("build_transfer") == transfers
    # one function evaluates a comb on a grid; RunSpec.response hands it out
    responses = {("propagation", "build_transfer"), ("combs", "RunSpec.response")}
    assert sites("_grid_response") == responses


def test_two_pass_law_is_written_once():
    # recall is the only closed form of the recycled prompt's (1 + C0);
    # train.py defines C0 and builds its own closed forms on it
    package = Path(afcsim.__file__).parent
    callers = {
        (path.stem, scope)
        for path in package.glob("*.py")
        if path.stem != "train"
        for scope in _callers(ast.parse(path.read_text()), "prompt_attenuation")
    }
    assert callers == {("protocols", "recall")}


def _module_caches(tree: ast.Module) -> set[str]:
    """Module-level functions and methods decorated with a functools cache.

    Such a cache lives as long as the process, so a later call's work
    depends on what ran before it.
    """

    def is_cache(node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return is_cache(node.func)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        return name in ("lru_cache", "cache")

    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scoped = [(f"{node.name}.", item) for item in node.body]
        else:
            scoped = [("", node)]
        for prefix, item in scoped:
            if isinstance(item, ast.FunctionDef) and any(
                map(is_cache, item.decorator_list)
            ):
                found.add(prefix + item.name)
    return found


def test_no_module_level_cache_holds_a_response():
    # a caller that repeats a comb response holds it and passes it on;
    # the two caches left are keyed by grid sizes and by cell text
    package = Path(afcsim.__file__).parent
    caches = {
        (path.stem, name)
        for path in package.glob("*.py")
        for name in _module_caches(ast.parse(path.read_text()))
    }
    assert caches == {("propagation", "_chirp_plan"), ("output", "_quoted")}
