"""Module boundaries: no library module imports a sibling's private name.

A name with a leading underscore belongs to its module; a helper that
another module needs gets a public name in the module that owns it.
Tests may still import private names.
"""
import ast
import pathlib

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
