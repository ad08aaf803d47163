"""Every public name, every public option and every result field has a user.

The users are the CLI, the demos, the acceptance suite and the benchmark
(``perfbench/*.py``).  A name in a module's ``__all__`` stays only if a
user or another part of the library refers to it.  The check reads the
sources with ``ast``: a reference is a name or an attribute in code, so
docstrings, comments, import lines and the ``__all__`` strings
themselves do not count, and neither does the name's own ``def`` or
``class`` statement.  The benchmark's tracer looks functions up by the
strings in ``perfbench/tracing.LAYERS``; those count as references too.

An optional parameter of a public function or public method stays only
if a user sets it, or if the calls in the users' files and in the
library pass it at least two different values (leaving it out passes the
default).  Constructors are not counted: a dataclass field or an
exception attribute is set by whoever builds it.  An optional parameter
of a module-level private function stays only if some call in the
library passes it.

A public member of a public class (a dataclass field, a property or
method, or an attribute an exception's ``__init__`` sets) stays only if a
user or the library reads it as an attribute, or if the CLI prints it
through ``repr``.  Alternate constructors (class and static methods) are
not members.  The match is by attribute name alone, so a member whose
name another type also reads (``x``, ``t``, ``sign``) passes unread.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import re
import textwrap
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

import hamriccati
from hamriccati import forms, linalg, perturbation, riccati

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hamriccati"
PERFBENCH = ROOT / "perfbench"
MODULES = (forms, linalg, perturbation, riccati)


def _users() -> list[Path]:
    return [
        PACKAGE / "cli.py",
        *sorted((ROOT / "demos").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
        *sorted(PERFBENCH.glob("*.py")),
    ]


def _consumers() -> list[Path]:
    return sorted({*PACKAGE.glob("*.py"), *_users()})


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced_names() -> set[str]:
    """Function names the benchmark's tracer looks up with ``getattr``."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return set().union(*ast.literal_eval(node.value).values())
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_every_exported_name_has_a_consumer():
    referenced = _referenced_names(_consumers()) | _traced_names()
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


def _optional_parameters():
    """(owner, callable name, position among the call arguments or None,
    parameter name) of every optional parameter of a public function or
    public method."""
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                members = [
                    (attr, getattr(obj, attr), isinstance(raw, staticmethod))
                    for attr, raw in vars(obj).items()
                    if not attr.startswith("_")
                    and isinstance(raw, (types.FunctionType, classmethod, staticmethod))
                ]
            elif inspect.isfunction(obj):
                members = [(name, obj, True)]
            else:
                continue
            for fname, fn, unbound in members:
                params = list(inspect.signature(fn).parameters.values())
                if inspect.isfunction(fn) and not unbound:
                    params = params[1:]  # self
                for position, p in enumerate(params):
                    if p.default is not inspect.Parameter.empty:
                        index = position if p.kind is p.POSITIONAL_OR_KEYWORD else None
                        yield f"{module.__name__}.{name}", fname, index, p.name


def _dict_keys(tree) -> dict[str, set[str]]:
    """Keys each name is given as a ``name = {...}`` literal or by
    ``name[key] = ...``: what a ``**name`` argument can pass."""
    keys: dict[str, set[str]] = defaultdict(set)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                # Also ``name = {} if ... else {...}``.
                for literal in ast.walk(node.value):
                    if isinstance(literal, ast.Dict):
                        keys[target.id].update(
                            k.value for k in literal.keys if isinstance(k, ast.Constant)
                        )
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)
            ):
                keys[target.value.id].add(target.slice.value)
    return keys


def _calls(path: Path):
    """(enclosing function, its parameters, called name, {parameter or
    position: argument source}) for every call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    keys = _dict_keys(tree)
    scopes = [(None, set(), tree)]
    scopes += [
        (node.name, {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    owner = {}
    for scope in scopes:  # innermost scope last, so it wins
        for node in ast.walk(scope[2]):
            if isinstance(node, ast.Call):
                owner[node] = scope
    for node, (enclosing, params, _) in owner.items():
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        passed: dict[object, str] = {}
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            passed[position] = ast.unparse(arg)
        for kw in node.keywords:
            if kw.arg is not None:
                passed[kw.arg] = ast.unparse(kw.value)
            elif isinstance(kw.value, ast.Name):
                for key in keys.get(kw.value.id, ()):
                    passed.setdefault(key, f"**{kw.value.id}")
        yield enclosing, params, called, passed


def test_every_option_has_a_consumer():
    options = {
        (fname, pname): (owner, index)
        for owner, fname, index, pname in _optional_parameters()
    }
    users = set(_users())
    set_by_user = set()
    # Per option: the argument sources passed to it, and the options of
    # enclosing functions whose values it is passed along.
    literal: dict[tuple, set[str]] = defaultdict(set)
    forwarded: dict[tuple, set[tuple]] = defaultdict(set)
    for path in _consumers():
        for enclosing, params, called, passed in _calls(path):
            for (fname, pname), (_, index) in options.items():
                if fname != called:
                    continue
                value = passed.get(pname, passed.get(index, "<default>"))
                if value in params and (enclosing, value) in options:
                    forwarded[fname, pname].add((enclosing, value))
                    continue
                literal[fname, pname].add(value)
                if path in users and value != "<default>":
                    set_by_user.add((fname, pname))
    values = {key: set(literal[key]) for key in options}
    changed = True
    while changed:
        changed = False
        for key, sources in forwarded.items():
            for source in sources:
                if not values[source] <= values[key]:
                    values[key] |= values[source]
                    changed = True
    unused = sorted(
        f"{options[key][0]}: {key[0]}({key[1]}=...)"
        for key in options
        if key not in set_by_user and len(values[key]) < 2
    )
    assert not unused, (
        "optional parameters that no CLI flag, demo or guarantee sets and that "
        f"are passed at most one value: {unused}"
    )


def _private_optional_parameters():
    """(module, function name, position among the call arguments or None,
    parameter name) of every optional parameter of a module-level private
    function of the library."""
    for module in MODULES:
        for name, fn in vars(module).items():
            if not (name.startswith("_") and inspect.isfunction(fn)):
                continue
            if fn.__module__ != module.__name__:
                continue  # imported from a sibling module, audited there
            for position, p in enumerate(inspect.signature(fn).parameters.values()):
                if p.default is not inspect.Parameter.empty:
                    index = position if p.kind is p.POSITIONAL_OR_KEYWORD else None
                    yield module.__name__, name, index, p.name


def test_every_private_option_is_passed_in_the_library():
    options = {
        (fname, pname): (owner, index)
        for owner, fname, index, pname in _private_optional_parameters()
    }
    passed_somewhere = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for _, _, called, passed in _calls(path):
            for (fname, pname), (_, index) in options.items():
                if fname == called and (pname in passed or index in passed):
                    passed_somewhere.add((fname, pname))
    unset = sorted(
        f"{options[key][0]}: {key[0]}({key[1]}=...)"
        for key in options
        if key not in passed_somewhere
    )
    assert not unset, f"optional parameters of private functions that no call passes: {unset}"


def _public_members(cls) -> list[str]:
    """Public dataclass fields, properties and methods of ``cls``, and the
    public attributes its own ``__init__`` sets on ``self``."""
    members = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    members += [
        name
        for name, value in vars(cls).items()
        if isinstance(value, (property, functools.cached_property, types.FunctionType))
    ]
    if "__init__" in vars(cls) and not dataclasses.is_dataclass(cls):
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        members += [
            node.attr
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ]
    return [name for name in dict.fromkeys(members) if not name.startswith("_")]


def _attribute_reads(paths) -> set[str]:
    reads: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def _printed_by_the_cli() -> set[str]:
    """Members shown by the ``repr`` that ``perturb --vertex`` writes for
    ``str(path.blocking)``: a ``SpectrumSnapshot`` with its axis clusters."""
    snap = perturbation.spectrum_snapshot(np.zeros((2, 2)))
    assert snap.imaginary_groups  # the clusters' repr shows too
    return set(re.findall(r"(\w+)=", repr(snap)))


def test_every_result_field_has_a_reader():
    reads = _attribute_reads(_consumers()) | _printed_by_the_cli()
    unread = sorted(
        f"{module.__name__}.{name}.{member}"
        for module in MODULES
        for name in module.__all__
        if inspect.isclass(getattr(module, name))
        for member in _public_members(getattr(module, name))
        if member not in reads
    )
    assert not unread, f"result members read by no CLI, demo, guarantee or benchmark: {unread}"
