"""The package surface: every public name and every module-private name is
read by the program, and the benchmark tracer's targets resolve.  A
top-level public name is read through a binding (its own module, an import
of it from the package, an attribute of an imported package module, or a
string the tracer's getattr takes); methods and private names are matched
by name alone."""

import ast
import os
import pathlib

from commoninfo import ci_solver, experiments, exponents, synthesis
from commoninfo import typicality

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "commoninfo"
PERFBENCH = ROOT / "perfbench"

TINY_PLAN = """
[plan]
name = traced
[ci]
sources = dsbs01
[exponent]
sources = dsbs01
rates = 0.5C
[simulate]
couplings = dsbs01
rates = 0.5C
n = 4
measure = tv renyi
"""


def _public(tree):
    """(qualified name, node) of the public top-level functions and classes
    of a module, and of the public methods of all its classes, private ones
    included."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _references(node, skip=None, bound=frozenset()):
    """(kind, name) of what ``node`` reads outside ``skip``: "name" for a
    free variable, "attr" for an attribute and "str" for a string constant
    (the tracer patches by attribute name)."""
    if node is skip:
        return
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        bound = bound | {a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        bound = bound | {n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and node.id not in bound:
        yield "name", node.id
    elif isinstance(node, ast.Attribute):
        yield "attr", node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield "str", node.value
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip, bound)


def _names(tree, skip=None, kinds=("name", "attr", "str")):
    return {name for kind, name in _references(tree, skip) if kind in kinds}


def _private(tree):
    """(name, node) of the module-private top-level functions, classes and
    constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _modules():
    """path -> parsed module, for each module of the program: the package
    and the benchmark, without __init__ (it only re-exports, so its imports
    run nothing) and the benchmark's own tests."""
    return {path: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) + sorted(
                PERFBENCH.glob("*.py"))
            if path.name != "__init__.py" and not path.name.startswith("test_")}


def _program():
    """(path, parsed module, the names every other program module reads)
    of each module of the package."""
    modules = _modules()
    for path, tree in modules.items():
        if path.parent == SRC:
            yield path, tree, {name for other, t in modules.items()
                               if other != path for name in _names(t)}


def _bound_reads(tree, defined):
    """(module, name) of each package-level name that ``tree`` reads through
    an import binding: a name taken by ``from commoninfo[.x] import name``
    or ``from .x import name``, or an attribute of a package module taken
    by ``from commoninfo import x`` or ``from . import x``.  ``defined``
    maps a top-level name to its module, for the package's re-exports."""
    modules, names = {}, {}     # local name -> module, -> (module, name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module or ""
        elif (node.module or "").split(".")[0] == "commoninfo":
            base = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if not base and (SRC / f"{alias.name}.py").exists():
                modules[local] = alias.name
            else:
                names[local] = (base or defined.get(alias.name), alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in names:
            yield names[node.id]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            yield modules[node.value.id], node.attr


def test_every_public_name_is_read_by_the_program():
    # a top-level function or class counts as read when its own module
    # reads it by name, another module reads it through an import binding
    # (a same-named function elsewhere does not count), or some module
    # holds its name as a string (the tracer's getattr); a method counts
    # when its name is read anywhere, as no binding says whose method it is
    modules = _modules()
    defined = {node.name: path.stem for path, tree in modules.items()
               if path.parent == SRC for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    bound = {read for path, tree in modules.items()
             for read in _bound_reads(tree, defined)}
    strings = {name for tree in modules.values()
               for name in _names(tree, kinds=("str",))}
    unused = []
    for path, tree, others in _program():
        for qual, node in _public(tree):
            name = qual.rsplit(".", 1)[-1]
            if "." in qual:
                read = name in others or name in _names(tree, node)
            else:
                read = ((path.stem, name) in bound or name in strings
                        or name in _names(tree, node, kinds=("name",)))
            if not read:
                unused.append(f"{path.stem}.{qual}")
    assert unused == []


def test_every_private_name_is_read_by_the_program():
    # a read in its own module, outside its definition, counts
    unread = [f"{path.stem}.{name}" for path, tree, others in _program()
              for name, node in _private(tree)
              if name not in others and name not in _names(tree, node)]
    assert unread == []


def test_tracer_targets_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(os.fspath(PERFBENCH))
    import tracing
    targets = tracing.layer_targets(experiments, ci_solver, exponents,
                                    synthesis, typicality)
    originals = {}
    for _, places, _ in targets:
        for module, attr in places:
            assert callable(getattr(module, attr, None)), (module, attr)
            originals[module, attr] = getattr(module, attr)
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        result = experiments.run_plan(experiments.parse_plan(TINY_PLAN),
                                      threads=1)
    finally:
        tracer.uninstall()
    assert result.n_errors == 0
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, (module, attr)
    # the program calls the wrapped names, so a plan reaches their spans
    spans = {span[1] for span in tracer.spans}
    assert {"experiments.run_plan", "ci_solver.wyner_ci", "exponents.f_rate",
            "exponents.big_omega_min", "synthesis.build_code",
            "synthesis.estimate_tv", "synthesis.estimate_renyi"} <= spans
