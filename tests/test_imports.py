"""Module boundaries and import cost.

No library module imports a sibling's private name: a name with a
leading underscore belongs to its module, and a helper that another
module needs gets a public name in the module that owns it. Tests may
still import private names.

`import mcstop` loads no SciPy and no `concurrent.futures`, so a CLI call
that computes no quantile pays only for NumPy. `scipy.special` is loaded
by the first special-function call (`specfns`), `scipy.signal` when a
diagonal VAR(1) block is first generated, and the process pool only when
a study runs with MCSTOP_WORKERS > 1, after `scipy.special`, so forked
workers inherit it. Each check runs a fresh interpreter.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import mcstop
from mcstop import specfns
from mcstop.cli import main

PACKAGE_DIR = pathlib.Path(mcstop.__file__).parent
# Prints, last, the SciPy and concurrent.futures modules the process loaded.
LOADED = ("print(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'scipy' or m.startswith('concurrent')))\n")


def _python(script, *args):
    """stdout lines of a fresh interpreter running script with args."""
    path = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _private_imports(source: str) -> list:
    """(line, module, name) of every private name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "mcstop":
            continue
        found.extend((node.lineno, "." * node.level + module, alias.name)
                     for alias in node.names if alias.name.startswith("_"))
    return found


def test_detects_multiline_and_package_imports():
    source = (
        "from .experiments import (\n"
        "    parse_model_spec,\n"
        "    _parse_batch,\n"
        ")\n"
        "from mcstop.stopping import _t_star\n"
        "from __future__ import annotations\n"
        "from os import _exit\n"
    )
    assert _private_imports(source) == [
        (1, ".experiments", "_parse_batch"),
        (5, "mcstop.stopping", "_t_star"),
    ]


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 10
    offenders = [
        f"{path.name}:{line}: from {module} import {name}"
        for path in modules
        for line, module, name in _private_imports(path.read_text())
    ]
    assert offenders == []


def test_import_loads_no_scipy_and_no_process_pool():
    assert _python("import sys\nimport mcstop\n" + LOADED) == ["[]"]


def _cli(*argv):
    """A fresh `mcstop` call's stdout lines, its exit code and the modules it loaded."""
    script = ("import sys\nfrom mcstop.cli import main\n"
              "try:\n    code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n    code = exc.code\n"
              "print(code)\n" + LOADED)
    return _python(script, *argv)


def test_cli_call_without_a_quantile_loads_no_scipy(tmp_path, capsys):
    assert _cli("--help")[-2:] == ["0", "[]"]
    rows = np.random.default_rng(5).standard_normal((3000, 2)).tolist()
    chain, state = tmp_path / "chain.csv", tmp_path / "state.json"

    def grow(n):
        chain.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows[:n]))

    grow(100)
    argv = ["stop", "--input", chain, "--resume", state]
    assert main([str(x) for x in argv] + ["--eps", "0.2", "--json"]) == 0
    due = json.loads(capsys.readouterr().out)["next_checkpoint"]
    grow(due - 1)
    payload, code, loaded = _cli(*argv, "--json")
    assert (code, loaded) == ("0", "[]")
    assert json.loads(payload)["next_checkpoint"] == due
    grow(due)
    *_, code, loaded = _cli(*argv)
    assert code == "0"
    assert "'scipy.special'" in loaded and "'scipy.signal'" not in loaded


def test_first_quantile_loads_scipy_special():
    script = ("import sys\nfrom mcstop import specfns\n"
              "print('scipy.special' in sys.modules)\n"
              "print(repr(specfns.quantile(specfns.f(5, 40), 0.9)))\n"
              "print('scipy.special' in sys.modules)\n")
    value = repr(specfns.quantile(specfns.f(5, 40), 0.9))
    assert _python(script) == ["False", value, "True"]


def test_scipy_signal_loads_only_for_a_diagonal_var1_block(tmp_path):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import mcstop, mcstop.cli\n"
        "spec = mcstop.var1_benchmark(5)\n"
        "mcstop.logistic_benchmark()\n"
        "assert mcstop.cli.main(['ess', '-p', '5']) == 0\n"
        "print('before', 'scipy.signal' in sys.modules)\n"
        "np.save(sys.argv[1], mcstop.Var1Source(spec.model, seed=3).take(4096).data)\n"
        "print('after', 'scipy.signal' in sys.modules)\n"
    )
    out = tmp_path / "rows.npy"
    assert _python(script, out)[-2:] == ["before False", "after True"]
    fresh = mcstop.Var1Source(mcstop.var1_benchmark(5).model, seed=3).take(4096)
    np.testing.assert_array_equal(np.load(out), fresh.data)


def test_pool_starts_after_scipy_special_is_loaded():
    # Forked workers inherit the parent's modules; a worker whose parent
    # had not loaded scipy.special would import it again itself.
    script = (
        "import os, sys\n"
        "import concurrent.futures\n"
        "import mcstop\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        print('pool', 'scipy.special' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, items):\n"
        "        return map(fn, items)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "os.environ['MCSTOP_WORKERS'] = '2'\n"
        "os.cpu_count = lambda: 2\n"
        "spec = mcstop.StudySpec(mcstop.IidGaussianSpec(2), 2, (50,), methods=('mbm',))\n"
        "print('before', 'scipy.special' in sys.modules)\n"
        "print(len(mcstop.coverage_study(spec).rows))\n"
    )
    assert _python(script) == ["before False", "pool True", "2"]
