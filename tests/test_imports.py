"""Module boundaries and import cost.

No library module imports a sibling's private name: a name with a
leading underscore belongs to its module, and a helper that another
module needs gets a public name in the module that owns it. Tests may
still import private names. `scipy.signal` is slow to import, so it is
loaded only when a diagonal VAR(1) block is first generated.
"""
import ast
import os
import pathlib
import subprocess
import sys

import numpy as np

import mcstop

PACKAGE_DIR = pathlib.Path(mcstop.__file__).parent


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
    path = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["before False", "after True"]
    fresh = mcstop.Var1Source(mcstop.var1_benchmark(5).model, seed=3).take(4096)
    np.testing.assert_array_equal(np.load(out), fresh.data)
