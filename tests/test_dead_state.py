"""Static guard against state nothing uses.

The package source is scanned with ``ast`` for seven kinds of dead state
or of name sharing that would hide it, and for one kind of coupling:

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
- a dataclass field name defined on two classes, for the same reason,
  unless ``SHARED_FIELDS`` lists it with its reason;
- a module-level function or class, or a method or property, with no
  reference outside its own body: no Name or Attribute load, no import
  and no ``getattr`` string.  Dunders are exempt, and a name listed in
  ``__all__`` is not thereby referenced;
- a private name (``_``-prefixed, not a dunder) that one package module
  imports from another, unless ``PRIVATE_IMPORTS`` lists it with its reason;
- a definition no run reaches.  The roots are the names the package's
  module-level code loads (its tables, decorators and fields), ``cli.main``,
  every name ``tests/test_acceptance.py`` references, and every name and
  string constant in ``bench``; the scan closes over the names each reached
  body loads, so a definition only unit tests reach is reported, however
  long its chain of callers.  No definition is exempt: code that only a
  test runs belongs in the tests.

The package's total line count is also held under ``SRC_LINE_CEILING``.

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
# total lines of src/torusop/*.py; a change may lower it, and one that
# raises it says why in CHANGES.md
SRC_LINE_CEILING = 3729

# dataclass field name on several classes -> why each class keeps it; the
# unread-field scan matches reads by name, so each listed class's field is
# read as named here
SHARED_FIELDS = {
    "grid": "each object lives on one lattice: Section, Region, "
            "BumpFunction, Symbol and DiscreteOperator check their arrays "
            "against it",
    "order": "Symbol.order sets the order of compositions and inverses, "
             "DiscreteOperator.order that of compose and the Sobolev norms",
    "values": "Section.values feeds the Sobolev norms; BumpFunction.values "
              "cuts sections off and is rho(f) in assemble_module and "
              "homotopy_scan",
}

# "importing module: private name" -> why the name crosses a module line
PRIVATE_IMPORTS = {
    "khomology: _loglog_slope":
        "the continuity exponent is quasiloc's log-log slope fit",
    "funcalc: _multiplier_view":
        "SpectralData proves a multiplier on its kernel's strided view, in "
        "row panels, with no n x n multiplier matrix",
    "funcalc: _BLOCK_BYTES":
        "the resolvent route sums its table in blocks of the size that "
        "operators fills and reads dense matrices in",
    "funcalc: _panels":
        "a multiplier proof reads its defect in the row panels that "
        "operators fills an x-dependent quantization in",
    "cli: _check_dense_cap":
        "a grid over the dense cap is refused by quantization's own guard "
        "before --out is touched or any symbol is sampled",
    "cli: _check_rule":
        "a funcalc-defect window or node count is refused by the "
        "quadrature rules' own guard before --out is touched",
}


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


def _dataclass_fields(defs: list):
    """(path, class name, field name) for each non-InitVar dataclass field."""
    for path, tree in defs:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in cls.decorator_list)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "InitVar" not in ast.unparse(stmt.annotation)):
                    yield path, cls.name, stmt.target.id


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
    return [f"{path}: {cls}.{name}"
            for path, cls, name in _dataclass_fields(defs)
            if name not in reads]


def shared_field_names(defs: list) -> list:
    """'name: path Class, path Class, ...' for each dataclass field name
    defined on 2+ classes."""
    owners = {}
    for path, cls, name in _dataclass_fields(defs):
        owners.setdefault(name, []).append(f"{path} {cls}")
    return [f"{name}: {', '.join(where)}"
            for name, where in sorted(owners.items()) if len(where) > 1]


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


def test_scan_reports_shared_field_names():
    code = '''
from dataclasses import InitVar, dataclass

@dataclass
class A:
    grid: int
    only_a: int
    seed: InitVar[int]

@dataclass(frozen=True)
class B:
    grid: int
    seed: InitVar[int]

class Plain:
    only_a: int = 0
'''
    trees = [("mod.py", ast.parse(code))]
    assert shared_field_names(trees) == ["grid: mod.py A, mod.py B"]


def test_shared_field_names_are_the_listed_ones():
    shared = shared_field_names(_trees(SRC))
    unlisted = [e for e in shared if e.split(":")[0] not in SHARED_FIELDS]
    assert not unlisted, "field names on several dataclasses: " + "; ".join(
        unlisted)
    stale = sorted(set(SHARED_FIELDS) - {e.split(":")[0] for e in shared})
    assert not stale, "allow-list entries on one class only: " + ", ".join(
        stale)


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


def _loaded_names(node) -> set:
    """Every name ``node`` references: Name and Attribute loads, imported
    names and ``getattr`` string constants."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rsplit(".", 1)[-1] for a in sub.names)
        elif isinstance(_getattr_string(sub), str):
            names.add(_getattr_string(sub))
    return names


def _module_level_names(defs: list) -> set:
    """Names the module-level code of ``defs`` loads when it runs.

    That is each statement outside a function or class, each decorator,
    and each class's bases and body statements outside its methods (its
    fields and tables); a function body is not module-level code, and
    neither is an import, which binds a name without running it.
    """
    nodes = []
    for _, tree in defs:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                nodes.append(stmt)
                continue
            nodes += stmt.decorator_list
            if isinstance(stmt, ast.ClassDef):
                nodes += stmt.bases + stmt.keywords
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        nodes += sub.decorator_list
                    else:
                        nodes.append(sub)
    return set().union(*map(_loaded_names, nodes))


def _string_constants(trees: list) -> set:
    return {node.value for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unreached_definitions(defs: list, roots: set) -> list:
    """'module.name' for each definition in ``defs`` no root reaches.

    Covers the definitions ``unreferenced_definitions`` covers, labelled
    by module stem and class.  A definition is reached when its name is a
    root, or when a reached body loads its name (as ``_loaded_names`` reads
    a body); the bodies of a reached class's dunder methods count as
    reached.
    """
    definitions = []  # (label, name, names its reached body loads)
    for path, tree in defs:
        module = pathlib.PurePosixPath(path).stem
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((f"{module}.{stmt.name}", stmt.name,
                                    _loaded_names(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                dunders = [s for s in stmt.body
                           if isinstance(s, ast.FunctionDef)
                           and _is_dunder(s.name)]
                definitions.append((f"{module}.{stmt.name}", stmt.name,
                                    set().union(*map(_loaded_names,
                                                     dunders))))
                definitions += [(f"{module}.{stmt.name}.{s.name}", s.name,
                                 _loaded_names(s)) for s in _methods(stmt)]

    names, reached = set(roots), set()
    grew = True
    while grew:
        grew = False
        for label, name, loads in definitions:
            if label in reached or name not in names:
                continue
            reached.add(label)
            names |= loads
            grew = True
    return [label for label, *_ in definitions if label not in reached]


def _run_roots() -> set:
    """The names a run starts from: the package's module-level code,
    ``cli.main``, the acceptance criteria and the benchmark."""
    acceptance = [t for p, t in _trees(ROOT / "tests")
                  if p == "tests/test_acceptance.py"]
    bench = _trees(ROOT / "bench")
    return (_module_level_names(_trees(SRC)) | {"main"}
            | set().union(*map(_loaded_names, acceptance))
            | set().union(*(_loaded_names(t) for _, t in bench))
            | _string_constants(bench))


def test_scan_reports_unreached_definitions():
    code = '''
import functools

TABLE = {"entry": lambda: entry()}

def a():
    return b()

def b():
    return c()

def c():
    return 0

def entry():
    return Built(1).value

def _by_name():
    return 0

@functools.cache
def lemma():
    return _lemma_helper()

def _lemma_helper():
    return 0

class Built:
    def __init__(self, value):
        self.value = value

    def __post_init__(self):
        _post_helper()

def _post_helper():
    return 0
'''
    trees = [("pkg/mod.py", ast.parse(code))]
    bench = [("bench/run.py", ast.parse('TARGETS = ("_by_name",)'))]
    roots = _module_level_names(trees) | _string_constants(bench)
    assert unreached_definitions(trees, roots) == [
        "mod.a", "mod.b", "mod.c", "mod.lemma", "mod._lemma_helper"]


def test_every_definition_is_reached():
    unreached = unreached_definitions(_trees(SRC), _run_roots())
    assert not unreached, "definitions no run reaches: " + ", ".join(
        unreached)


def private_imports(defs: list) -> list:
    """'module: name' for each private name a module imports from a sibling.

    A sibling import is ``from .mod import ...``; a private name starts
    with an underscore and is not a dunder.
    """
    out = []
    for path, tree in defs:
        module = pathlib.PurePosixPath(path).stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                out += [f"{module}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_")
                        and not _is_dunder(alias.name)]
    return out


def test_scan_reports_private_imports():
    code = '''
import numpy as np
from numpy import _private_but_external
from . import __version__
from .ops import public, _private
from ..pkg.sub import _deeper

def f():
    from .ops import _inner
    return _inner
'''
    trees = [("pkg/mod.py", ast.parse(code))]
    assert private_imports(trees) == [
        "mod: _private", "mod: _deeper", "mod: _inner"]


def test_private_imports_are_the_listed_ones():
    found = private_imports(_trees(SRC))
    unlisted = sorted(set(found) - set(PRIVATE_IMPORTS))
    assert not unlisted, "private names imported across modules: " + (
        ", ".join(unlisted))
    stale = sorted(set(PRIVATE_IMPORTS) - set(found))
    assert not stale, "allow-list entries no module imports: " + ", ".join(
        stale)


def test_src_stays_within_its_line_ceiling():
    lines = sum(len(path.read_text().splitlines())
                for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_CEILING, (
        f"src/torusop has {lines} lines, over its ceiling {SRC_LINE_CEILING}")
