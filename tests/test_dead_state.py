"""Static guard against state nothing uses.

The package source is scanned with ``ast`` for five kinds of dead state:

- an optional parameter (one with a default) of a module-level function
  or a method that no call in ``src``, ``tests`` or ``bench`` passes, by
  keyword or by position;
- a dataclass field that no code there reads as an attribute.  ``InitVar``
  fields are exempt: they are consumed by ``__post_init__`` and never
  stored;
- a parameter of a function or method that its body never loads.  Nested
  functions and lambdas count as part of the body; ``self``, ``cls`` and
  ``_``-prefixed names are exempt, and lambdas are not scanned;
- a non-dunder method or property name defined on two classes, which
  would make the name-matched counts of the other scans inexact;
- a module-level function or class, or a method or property, with no
  reference outside its own body: no Name or Attribute load, no import
  and no ``getattr`` string.  Dunders are exempt, and a name listed in
  ``__all__`` is not thereby referenced.

Calls, reads and references are matched to definitions by name alone, and
a call that splats ``*args`` or ``**kwargs`` counts as passing every
positional or keyword parameter, so the scans can miss dead state but never
report live state.  The sources are parsed once per test session.
"""

from __future__ import annotations

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torusop"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "bench")


@functools.cache
def _trees(*dirs) -> list:
    return [(path.relative_to(ROOT).as_posix(),
             ast.parse(path.read_text(), filename=str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _getattr_string(node):
    """The attribute name of ``getattr(x, "name", ...)``, else None."""
    if (isinstance(node, ast.Call)
            and _called_name(node.func) == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)):
        return node.args[1].value
    return None


def _called_name(func: ast.expr):
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def unread_fields(defs: list, users: list) -> list:
    """'path: Class.field' for each dataclass field in ``defs`` no code reads.

    A read is ``x.field`` in a load context, or ``getattr(x, "field")``.
    """
    reads = set()
    for _, tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                reads.add(node.attr)
            elif _getattr_string(node) is not None:
                reads.add(_getattr_string(node))
    out = []
    for path, tree in defs:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in cls.decorator_list)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "InitVar" not in ast.unparse(stmt.annotation)
                        and stmt.target.id not in reads):
                    out.append(f"{path}: {cls.name}.{stmt.target.id}")
    return out


def unpassed_options(defs: list, users: list) -> list:
    """'path: function(param)' for each optional parameter no call passes.

    Covers module-level functions and methods in ``defs``.  A call passes
    a parameter by naming it, by giving at least as many positional
    arguments as precede it (``self`` or ``cls`` not counted), or by a splat.
    """
    calls = {}
    for _, tree in users:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            seen = calls.setdefault(_called_name(node.func), {
                "keywords": set(), "positional": 0, "splat": False})
            for kw in node.keywords:
                if kw.arg is None:
                    seen["splat"] = True
                else:
                    seen["keywords"].add(kw.arg)
            if any(isinstance(a, ast.Starred) for a in node.args):
                seen["splat"] = True
            seen["positional"] = max(seen["positional"], len(node.args))

    out = []
    for path, tree in defs:
        functions = [(s, False) for s in tree.body
                     if isinstance(s, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                functions += [(s, True) for s in cls.body
                              if isinstance(s, ast.FunctionDef)]
        for fn, method in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = method and not any(
                ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
            first = len(positional) - len(args.defaults)
            optional = [(a.arg, i - bound) for i, a in enumerate(positional)
                        if i >= first]
            optional += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                         if d is not None]
            seen = calls.get(fn.name)
            for name, pos in optional:
                if seen is not None and (
                        seen["splat"] or name in seen["keywords"]
                        or (pos is not None and seen["positional"] > pos)):
                    continue
                out.append(f"{path}: {fn.name}({name})")
    return out


def unread_parameters(defs: list) -> list:
    """'path: function(param)' for each parameter its body never loads.

    Every function and method in ``defs`` is scanned, nested ones too.  A
    load is a Name read anywhere in the body, nested functions and lambdas
    included; an augmented assignment counts as a read of its target.
    """
    out = []
    for path, tree in defs:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            loads = set()
            for stmt in fn.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name) and isinstance(
                            node.ctx, ast.Load):
                        loads.add(node.id)
                    elif isinstance(node, ast.AugAssign) and isinstance(
                            node.target, ast.Name):
                        loads.add(node.target.id)
            out += [f"{path}: {fn.name}({name})" for name in params
                    if name not in ("self", "cls")
                    and not name.startswith("_") and name not in loads]
    return out


def _methods(cls: ast.ClassDef) -> list:
    return [s for s in cls.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not _is_dunder(s.name)]


def shared_method_names(defs: list) -> list:
    """'name: path Class, path Class, ...' for each method name on 2+ classes.

    Methods and properties count alike; dunders are exempt.
    """
    owners = {}
    for path, tree in defs:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in _methods(cls):
                    owners.setdefault(fn.name, []).append(
                        f"{path} {cls.name}")
    return [f"{name}: {', '.join(where)}"
            for name, where in sorted(owners.items()) if len(where) > 1]


def unreferenced_definitions(defs: list, users: list) -> list:
    """'path: name' for each definition in ``defs`` nothing else references.

    Covers module-level functions and classes and the methods and
    properties of module-level classes.  A reference is a Name or Attribute
    load, an imported name, or a ``getattr`` string constant, at a line of
    ``users`` outside the definition's own body.
    """
    refs = {}  # name -> [(path, line)]
    for path, tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    refs.setdefault(alias.name.rsplit(".", 1)[-1], []).append(
                        (path, node.lineno))
                continue
            else:
                name = _getattr_string(node)
                if not isinstance(name, str):
                    continue
            refs.setdefault(name, []).append((path, node.lineno))

    out = []
    for path, tree in defs:
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        targets = [(s, s.name) for s in tree.body if isinstance(s, kinds)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                targets += [(s, f"{cls.name}.{s.name}")
                            for s in _methods(cls)]
        for node, label in sorted(targets, key=lambda t: t[0].lineno):
            if _is_dunder(node.name):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(node.name, ())):
                out.append(f"{path}: {label}")
    return out


def test_scan_reports_dead_state():
    code = '''
from dataclasses import InitVar, dataclass

@dataclass
class Report:
    kept: int
    dead: int
    consumed: InitVar[int]

def f(a, used=1, dead=2, *, named=3, unnamed=4):
    return Report(a, 0, 0).kept

class C:
    def m(self, x=0, y=0):
        return x

f(1, 2, named=3)
C().m(5)
'''
    trees = [("mod.py", ast.parse(code))]
    assert unread_fields(trees, trees) == ["mod.py: Report.dead"]
    assert unpassed_options(trees, trees) == [
        "mod.py: f(dead)", "mod.py: f(unnamed)", "mod.py: m(y)"]


def test_every_optional_parameter_is_passed_somewhere():
    unpassed = unpassed_options(_trees(SRC), _trees(*SCANNED))
    assert not unpassed, "optional parameters no call passes: " + ", ".join(
        unpassed)


def test_every_dataclass_field_is_read():
    unread = unread_fields(_trees(SRC), _trees(*SCANNED))
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def test_scan_reports_unread_parameters():
    code = '''
def f(a, b, _c, *args, d, **kw):
    def inner(x, y):
        return a + y
    return inner(0, 1) + (lambda z: d)(0)

class C:
    def m(self, used, unused):
        used += 1

    @classmethod
    def make(cls, n):
        return cls()
'''
    trees = [("mod.py", ast.parse(code))]
    assert unread_parameters(trees) == [
        "mod.py: f(b)", "mod.py: f(args)", "mod.py: f(kw)",
        "mod.py: inner(x)", "mod.py: m(unused)", "mod.py: make(n)"]


def test_scan_reports_shared_method_names():
    code = '''
class A:
    def __init__(self):
        pass

    def norm(self):
        return 0

    @property
    def size(self):
        return 1

class B:
    def __init__(self):
        pass

    size: int = 0

    def norm(self):
        return 1
'''
    trees = [("mod.py", ast.parse(code))]
    assert shared_method_names(trees) == ["norm: mod.py A, mod.py B"]


def test_scan_reports_unreferenced_definitions():
    code = '''
__all__ = ["dead", "exported"]

def dead(n):
    return dead(n - 1) if n else 0

def exported():
    return Kept().used + Kept.by_attr()

class Kept:
    def __repr__(self):
        return "Kept"

    @property
    def used(self):
        return 1

    @staticmethod
    def by_attr():
        return getattr(Kept(), "by_name")

    def by_name(self):
        return 0

    def unused(self):
        return self.unused()

class Lonely:
    pass
'''
    trees = [("mod.py", ast.parse(code)),
             ("user.py", ast.parse("from mod import exported"))]
    assert unreferenced_definitions(trees[:1], trees) == [
        "mod.py: dead", "mod.py: Kept.unused", "mod.py: Lonely"]


def test_every_parameter_is_read():
    unread = unread_parameters(_trees(SRC))
    assert not unread, "parameters their bodies never read: " + ", ".join(
        unread)


def test_no_method_name_is_defined_on_two_classes():
    shared = shared_method_names(_trees(SRC))
    assert not shared, "method names on several classes: " + "; ".join(
        shared)


def test_every_definition_is_referenced():
    unused = unreferenced_definitions(_trees(SRC), _trees(*SCANNED))
    assert not unused, "definitions nothing references: " + ", ".join(
        unused)
