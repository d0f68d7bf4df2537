"""Importing the package: no scipy at start-up, every public name resolves,
the test-only references stay out of the package, input enters the
simulation one way, and the two-pass law has one closed form.

scipy.integrate is imported only inside the one quadrature,
``train.broadened_A_coefficients``, and ``afcsim.reproduce`` only by
the ``reproduce`` subcommand.  The scipy checks run in a fresh
interpreter, since the test process itself may have imported both.
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


def test_cli_runs_without_scipy(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("samples = 2048\n")
    src = str(Path(afcsim.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
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


def test_public_names_resolve_once():
    names = afcsim.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(afcsim, name)
    # Probe is the only input path
    assert "transmit" not in names
    with pytest.raises(AttributeError):
        afcsim.transmit


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
    # is the one simulation pipeline: only it propagates and reads trains
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
    assert inverse == {("protocols", "_second_pass")}
    assert sites("propagate") == sites("extract_train") == {("protocols", "recall")}
    transfers = {("protocols", "recall"), ("cli", "cmd_transfer")}
    assert sites("build_transfer") == transfers


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
