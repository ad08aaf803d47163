"""Every public name has a user.

A name in a module's ``__all__`` stays only if the CLI, a demo, the
acceptance suite or another part of the library refers to it.  The check
reads the sources with ``ast``: a reference is a name or an attribute in
code, so docstrings, comments, import lines and the ``__all__`` strings
themselves do not count, and neither does the name's own ``def`` or
``class`` statement.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import hamriccati
from hamriccati import forms, linalg, perturbation, riccati

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamriccati"
MODULES = (forms, linalg, perturbation, riccati)


def _consumers() -> list[Path]:
    return [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_consumer():
    referenced = _referenced_names(_consumers())
    unused = sorted(
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in module.__all__
        if name not in referenced
    )
    assert not unused, f"exported but used by no CLI, demo or guarantee: {unused}"


def test_the_package_exports_exactly_the_modules_public_names():
    declared = set().union(*(module.__all__ for module in MODULES))
    exported = {
        name
        for name, value in vars(hamriccati).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name != "annotations"
    }
    assert exported == declared
