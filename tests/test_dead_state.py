"""Static guard against state nothing uses.

The package source is scanned with ``ast`` for two kinds of dead state:

- an optional parameter (one with a default) of a module-level function
  or a method that no call in ``src``, ``tests`` or ``bench`` passes, by
  keyword or by position;
- a dataclass field that no code there reads as an attribute.  ``InitVar``
  fields are exempt: they are consumed by ``__post_init__`` and never
  stored.

Calls and attribute reads are matched to definitions by name alone, and a
call that splats ``*args`` or ``**kwargs`` counts as passing every
positional or keyword parameter, so the scan can miss dead state but never
reports live state.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torusop"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "bench")


def _trees(*dirs) -> list:
    return [(path.relative_to(ROOT).as_posix(),
             ast.parse(path.read_text(), filename=str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


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
            elif (isinstance(node, ast.Call)
                  and _called_name(node.func) == "getattr"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
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
