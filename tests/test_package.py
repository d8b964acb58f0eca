"""The package namespace and what each command loads.

``fragility`` resolves its exported names on first use, and ``fragility.cli``
imports the solver, ranking, harness and LP modules inside the handlers
that run them.  Each load test runs in a fresh interpreter, since
``sys.modules`` only grows within a process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fragility
from fragility import cli

SRC = str(Path(fragility.__file__).resolve().parents[1])

GRAPH = "hub a\nhub b\nhub c\nhub d\na b\nd e\n"

# prints the package's loaded modules, without the prefix, as the last line
REPORT = ("print(' '.join(sorted(m.partition('.')[2] for m in sys.modules"
          " if m.split('.')[0] == 'fragility')))")

BASE = {"", "cli", "defaults", "graph", "io"}
HARNESS = BASE | {"baselines", "harness", "solvers"}
G = ["--graph", "g.txt"]

LOADS = [
    (["centrality", *G], BASE),
    (["greedy", *G, "--k", "2"], BASE | {"solvers"}),
    (["exact", *G, "--k", "2"], BASE | {"solvers"}),
    (["decision", *G, "--k", "2", "--x", "0.9"], BASE | {"solvers"}),
    (["emit-ip", *G, "--k", "2", "--linearize-i", "1"], BASE | {"ip_model"}),
    # fragile scores the removals on a solvers.DegreeTracker
    (["baseline", *G, "--strategy", "degree", "--m", "1"],
     BASE | {"baselines", "solvers"}),
    (["curve", *G, "--strategies", "degree"], HARNESS),
    (["bench", *G, "--strategies", "degree", "--budgets", "1"], HARNESS),
    (["synth", "--kind", "random", "--n", "5", "--m", "4"], HARNESS),
]


def _fresh(code: str, *argv: str, cwd: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("argv, modules", LOADS, ids=[a[0] for a, _ in LOADS])
def test_command_loads_only_what_it_runs(tmp_path, argv, modules):
    (tmp_path / "g.txt").write_text(GRAPH, encoding="utf-8")
    code = ("import sys\nfrom fragility.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n" + REPORT)
    last = _fresh(code, *argv, cwd=tmp_path)[-1]
    assert set(last.split(" ")) == modules


@pytest.mark.parametrize("argv", [a for a, _ in LOADS], ids=[a[0] for a, _ in LOADS])
def test_command_loads_no_dataclasses(tmp_path, argv):
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
    (tmp_path / "g.txt").write_text(GRAPH, encoding="utf-8")
    code = ("import sys\nfrom fragility.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert _fresh(code, *argv, cwd=tmp_path)[-1] == "False False"


def test_import_and_dir_load_no_submodule(tmp_path):
    code = ("import sys\nimport fragility\n"
            "print(' '.join(dir(fragility)))\n" + REPORT)
    listed, loaded = _fresh(code, cwd=tmp_path)
    assert set(fragility.__all__) <= set(listed.split(" "))
    assert loaded == ""


class TestNamespace:
    def test_each_name_is_its_module_attribute(self):
        for module, names in fragility._EXPORTS.items():
            home = import_module(f"fragility.{module}")
            for name in names:
                assert getattr(fragility, name) is getattr(home, name), name

    def test_all_is_the_table_once_sorted(self):
        names = [n for names in fragility._EXPORTS.values() for n in names]
        assert len(set(names)) == len(names)
        assert fragility.__all__ == sorted(names)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from fragility import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(fragility.__all__)
        assert all(namespace[n] is getattr(fragility, n) for n in namespace)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError) as err:
            fragility.no_such_name  # noqa: B018
        assert str(err.value) == "module 'fragility' has no attribute 'no_such_name'"
        assert not hasattr(fragility, "_ranking_curve")


def test_unexpected_errors_propagate(tmp_path, monkeypatch):
    # main reports bad input and error classes that carry an exit_status
    (tmp_path / "g.txt").write_text(GRAPH, encoding="utf-8")

    def broken(args, graph, ns):
        raise KeyError("bug")
    monkeypatch.setattr(cli, "_cmd_centrality", broken)
    with pytest.raises(KeyError):
        cli.main(["centrality", "--graph", str(tmp_path / "g.txt")])


def test_pooled_betweenness_loads_no_multiprocessing(tmp_path):
    # the sweep's workers are plain forks, each with its own pipe
    wheel = "".join(f"v{i} v{(i + 1) % 40}\nhub v{i}\n" for i in range(40))
    (tmp_path / "g.txt").write_text(wheel, encoding="utf-8")
    code = ("import os, sys\nfrom fragility import baselines\n"
            "from fragility.cli import main\n"
            "baselines._POOL_MIN_WORK = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "def counted():\n"
            "    pid = fork()\n"
            "    forks.append(pid)\n"
            "    return pid\n"
            "os.fork = counted\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(bool(forks), 'multiprocessing' in sys.modules)")
    argv = ["curve", *G, "--strategies", "betweenness"]
    assert _fresh(code, *argv, cwd=tmp_path)[-1] == "True False"
