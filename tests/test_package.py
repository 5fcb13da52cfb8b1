"""Tests for the package's exported names and the modules each command
loads."""

import importlib
import os
import subprocess
import sys

import pytest

import bellforge

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "docs", "examples", "v1")


def test_exports_resolve_once_each():
    names = bellforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        if name == "__version__":
            continue
        home = importlib.import_module(
            f"bellforge.{bellforge._HOME_OF[name]}")
        assert getattr(bellforge, name) is getattr(home, name), name


def test_every_public_binding_is_exported():
    # A star import resolves every name of `__all__` through the lazy
    # lookup, whatever earlier tests have already resolved.
    bound: dict = {}
    exec("from bellforge import *", bound)
    del bound["__builtins__"]
    assert set(bound) == set(bellforge.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellforge.no_such_name


def imported_modules(*args: str, env: dict | None = None) -> set[str]:
    """Every module a fresh `python -X importtime ARGS` process imports,
    with `env` added to its environment."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, cwd=REPO,
                          env=dict(os.environ, **(env or {})), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def bellforge_modules(modules: set[str]) -> set[str]:
    return {m.partition(".")[2] for m in modules
            if m.startswith("bellforge.")}


def test_import_loads_no_submodule_and_no_numpy():
    modules = imported_modules("-c", "import bellforge")
    assert "bellforge" in modules
    assert bellforge_modules(modules) == set()
    assert "numpy" not in modules


BASE = {"cli", "serialize", "_threads", "states"}
CERTIFY = {"protocols", "classicalcc", "remoteprep", "teleport", "bell",
           "transforms"}


@pytest.mark.parametrize("command,config,extra", [
    ("pbt-bench", "pbt_bench.config.json", {"teleport"}),
    ("cc", "cc.config.json", {"protocols", "classicalcc"}),
    ("bell-certify", "bell_certify.config.json", CERTIFY),
    ("oneway", "oneway.config.json",
     {"protocols", "classicalcc", "remoteprep", "teleport", "bell"}),
])
def test_each_command_loads_only_its_modules(tmp_path, command, config,
                                             extra):
    modules = imported_modules(
        "-m", "bellforge", command,
        "--config", os.path.join(EXAMPLES, config),
        "--out", str(tmp_path / "report.json"))
    assert bellforge_modules(modules) == BASE | extra
    if command == "bell-certify":  # the shipped config is exact
        assert "numpy.random" not in modules


def test_threaded_sampled_run_loads_no_executor(tmp_path):
    # A threaded map starts plain threads; the executor machinery and
    # the logging it pulls in stay unloaded.
    modules = imported_modules(
        "-m", "bellforge", "bell-certify",
        "--config", os.path.join(EXAMPLES, "bell_certify_sampled.config.json"),
        "--out", str(tmp_path / "report.json"),
        env={"BELLFORGE_THREADS": "2"})
    assert bellforge_modules(modules) == BASE | CERTIFY
    for name in ("concurrent.futures", "logging", "queue"):
        assert name not in modules, name
