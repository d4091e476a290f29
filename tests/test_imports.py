"""Every name a module imports is used, and every name the benchmark
reaches in the program exists.

No linter runs with the tests, so the first check stands in for the
unused-import rule.  It reads each module with ``ast`` and does not
import it.  ``__init__.py`` is skipped because its imports are
re-exports.  Next to it, no module of the program imports scipy, which
only the tests need, and no line of the program or of its tests is
longer than 79 characters.  A second ``ast`` check holds every private
(``_name``) module-level function, class or constant of ``ergolift`` to
be referenced somewhere in the package, so a helper does not outlive
its last caller.  A third holds every public module-level function or
class and every public method to be read somewhere in ``src/`` or
``perfbench/``, a ``tracing.TRACED`` entry counting as a reader; the
test-support names in ``TEST_SUPPORT`` are the only exceptions.  A
module-level name counts as read only through its module (``fad.seed``,
a name imported from ``fad`` or read in it), so ``np.sin`` or
``problem.scenario.seed`` does not read ``fad.sin`` or ``fad.seed``,
and a method only as an attribute (``model.link_index``), so a local
variable of its name does not read it.
A fourth holds the double-backticked names in ``src/`` to what exists:
a dotted one whose first part is an ``ergolift`` module or a class
defined in ``src/`` must resolve (a dataclass field counts), and a bare
snake-case one whose parts are all at least two characters long (so not
a symbol such as ``lam_a``) must be defined or read in ``src/``, so a
docstring does not outlive the name it explains.  A fifth finds
one-value switches: a parameter of a function in ``src/`` whose literal
default no call in ``src/`` or ``perfbench/`` uses, every call passing
it by keyword with one same other literal.  Calls in the tests do not
count, since a switch kept only for them is still one code path too
many.

The benchmark under ``perfbench/`` is only read, also with ``ast``: the
functions its traced runs rebind by name (``tracing.TRACED``) and the
calls it makes through the program's modules must resolve in
``ergolift`` and accept the arguments it passes, so that a deletion or a
changed signature fails here rather than in a benchmark run.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MODULES = sorted(p for p in [*ROOT.glob("src/ergolift/*.py"),
                             *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import os\nfrom typing import Optional, Mapping\nx: Mapping\n"
    assert unused_imports(source) == [(1, "os"), (2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source):
    """Lines of the source that import scipy or a module under it,
    anywhere in the source (a function body included)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_detects_scipy_imports():
    source = ("import numpy\nimport scipy.sparse as sp\n"
              "def f():\n    from scipy.optimize import minimize\n"
              "from .scipyish import x\nimport scipyx\n")
    assert scipy_imports(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/ergolift/*.py")),
                         ids=lambda p: p.name)
def test_program_imports_no_scipy(path):
    # the program runs on numpy alone; scipy is a test dependency
    assert scipy_imports(path.read_text()) == []


MAX_LINE = 79


def long_lines(source):
    """Numbers of the lines longer than ``MAX_LINE`` characters."""
    return [n for n, line in enumerate(source.splitlines(), start=1)
            if len(line) > MAX_LINE]


def test_detects_long_lines():
    assert long_lines("x = 1\n" + "#" * 80 + "\n" + "#" * 79 + "\n") == [2]


@pytest.mark.parametrize("path", sorted([*ROOT.glob("src/ergolift/*.py"),
                                         *ROOT.glob("tests/*.py")]),
                         ids=lambda p: p.name)
def test_no_long_lines(path):
    assert long_lines(path.read_text()) == []


def private_definitions(source):
    """Line of each private module-level function, class or constant."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def unreferenced_private_names(sources):
    """``(module, line, name)`` of each private module-level definition
    in ``sources`` (module name to source) that no source reads, by
    name or as an attribute."""
    used = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return sorted((module, line, name) for module, source in sources.items()
                  for name, line in private_definitions(source).items()
                  if name not in used)


def test_detects_unreferenced_private_names():
    sources = {"a": "_TOL = 1\n_kept = 2\n\ndef _gone():\n    pass\n\n"
                    "class _Old:\n    pass\n\n__version__ = '1'\n",
               "b": "from a import _kept\nx = _kept\n"}
    assert unreferenced_private_names(sources) == [
        ("a", 1, "_TOL"), ("a", 4, "_gone"), ("a", 7, "_Old")]


def test_private_names_are_referenced():
    sources = {p.stem: p.read_text()
               for p in sorted(ROOT.glob("src/ergolift/*.py"))}
    assert unreferenced_private_names(sources) == []


def literal(node):
    """The value of a literal ``ast`` node, or ``Ellipsis`` for any other
    node (a name, a call, ...)."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return ...


def one_value_switches(sources, callers):
    """``(module, line, function, parameter)`` of each parameter with a
    literal default in ``sources`` (module name to source) that every
    call in ``callers`` (name to source) passes by keyword, with one
    same literal other than the default.  A call is matched to a
    definition by its bare name, so functions and methods of one name
    share their calls."""
    calls = {}
    for source in callers.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(name, []).append(n)
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):],
                          a.defaults),
                     *((k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None)]
            for arg, default in pairs:
                # what each call passes by keyword (None: it does not)
                given = {next((repr(literal(k.value)) for k in call.keywords
                               if k.arg == arg.arg), None)
                         for call in calls.get(node.name, ())}
                if len(given) == 1 and given.isdisjoint(
                        {None, "Ellipsis", repr(literal(default))}):
                    out.append((module, node.lineno, node.name, arg.arg))
    return sorted(out)


def test_detects_one_value_switches():
    sources = {"a": "def f(x, check=True, *, mode='a', n=1):\n    pass\n\n"
                    "def g(fast=False):\n    pass\n\n"
                    "def h(on=False):\n    pass\n"}
    callers = {**sources,
               "b": "f(1, check=False, mode='b', n=k)\nf(2, check=False)\n"
                    "g(fast=True)\ng()\nh(on=False)\n",
               "c": "obj.f(3, check=False, mode='b')\n"}
    # mode is left out by one call, n is not a literal, g's other call
    # takes the default, and h is only ever given its default
    assert one_value_switches(sources, callers) == [("a", 1, "f", "check")]


def test_no_one_value_switches():
    sources = {p.stem: p.read_text()
               for p in sorted(ROOT.glob("src/ergolift/*.py"))}
    callers = {**sources, **{f"perfbench.{p.stem}": p.read_text()
                             for p in sorted(PERFBENCH.glob("*.py"))}}
    assert one_value_switches(sources, callers) == []


SPAN = re.compile(r"``([^`\s]+)``")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
SNAKE = re.compile(r"_*[a-z][a-z0-9]*(?:_[a-z0-9]+)*")
PACKAGE = {p.stem for p in ROOT.glob("src/ergolift/*.py")} - {"__init__"}


def resolves(owner, parts):
    """Whether ``owner.parts[0].parts[1]...`` exists; the last part may
    be a dataclass field, which a class need not hold as an attribute."""
    for k, part in enumerate(parts):
        if not hasattr(owner, part):
            return k == len(parts) - 1 and part in getattr(
                owner, "__dataclass_fields__", {})
        owner = getattr(owner, part)
    return True


def stale_references(sources):
    """``(module, span)`` of each double-backticked span in ``sources``
    (module name to source) that names nothing: a dotted name headed by
    an ``ergolift`` module, or by a class the sources define (looked up
    in the ``ergolift`` module of that name), that does not resolve, or
    a bare snake-case name with parts of two characters or more that no
    source defines or reads and that names no ``ergolift`` module."""
    classes, known = {}, set(PACKAGE)
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ClassDef):
                classes[n.name] = module
            for attr in ("id", "attr", "name", "arg", "asname"):
                if isinstance(getattr(n, attr, None), str):
                    known.add(getattr(n, attr))
    out = set()
    for module, source in sources.items():
        for span in SPAN.findall(source):
            if DOTTED.fullmatch(span):
                head, *rest = span.split(".")
                if head in classes:
                    head, rest = classes[head], [head, *rest]
                if head in PACKAGE and not resolves(
                        importlib.import_module(f"ergolift.{head}"), rest):
                    out.add((module, span))
            elif SNAKE.fullmatch(span) and span not in known and all(
                    len(part) >= 2 for part in span.strip("_").split("_")):
                out.add((module, span))
    return sorted(out)


def test_detects_stale_references():
    sources = {"multibody": (
        'class KinTree:\n'
        '    """``KinTree.rot``, ``KinTree.gone``, ``fad.gone``,\n'
        '    ``multibody.kinematics``, ``np.gone``, ``kept_name``,\n'
        '    ``gone_name``, ``lam_a``, ``fad``."""\n'
        '    kept_name = 1\n')}
    assert stale_references(sources) == [
        ("multibody", "KinTree.gone"), ("multibody", "fad.gone"),
        ("multibody", "gone_name")]


def test_docstring_references_resolve():
    sources = {p.stem: p.read_text()
               for p in sorted(ROOT.glob("src/ergolift/*.py"))}
    assert stale_references(sources) == []


def resolve(module, attr):
    """``ergolift.<module>.<attr>``, where attr may be ``Class.method``."""
    owner = importlib.import_module(f"ergolift.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def traced_names():
    """The ``TRACED`` pairs of ``perfbench/tracing.py``."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_traced_names_resolve():
    # a traced benchmark run rebinds each of these by name; deleting one
    # must fail here, not only in that run
    for module, attr in traced_names():
        assert callable(resolve(module, attr)), f"{module}.{attr}"


def program_mismatches(source):
    """Uses of ``from ergolift import m`` modules (``m.f``, ``m.f(...)``)
    that do not resolve, or calls whose arguments do not bind."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom)
               and node.module == "ergolift" for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        name = f"{node.value.id}.{node.attr}"
        try:
            target = resolve(node.value.id, node.attr)
        except AttributeError:
            out.append((node.lineno, f"{name} does not exist"))
            continue
        call = calls.get(id(node))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(target).bind(
                *call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            out.append((node.lineno, f"{name}: {exc}"))
    return [f"line {line}: {message}" for line, message in sorted(out)]


def test_detects_program_mismatches():
    source = ("from ergolift import fad, scenario\n"
              "fad.seed([1.0])\n"
              "scenario.warm_start_configuration(None, None)\n"
              "fad.widen(1, 2, 3, nope=4)\n"
              "fad.no_such_helper\n")
    assert [m.split(":")[0] for m in program_mismatches(source)] == [
        "line 3", "line 4", "line 5"]


def test_benchmark_uses_of_the_program_resolve():
    paths = sorted(PERFBENCH.glob("*.py"))
    assert any("from ergolift import" in p.read_text() for p in paths)
    for path in paths:
        assert program_mismatches(path.read_text()) == [], path.name


# public names that only the tests read, each with why it stays
TEST_SUPPORT = {
    "fad.cos":
        "an oracle of the composed Rodrigues and rpy rules in test_fad",
    "fad.seed":
        "seeds the Dual inputs of the fad and multibody tests (13 calls)",
    "fad.sin":
        "an oracle of the composed Rodrigues and rpy rules in test_fad",
    "multibody.Model.total_mass":
        "the reference total the CoM and payload tests check against",
    "multibody.random_configuration":
        "draws the random postures of the kinematics and statics tests",
    "scenario.clear_warm_start_memo":
        "lets the memo tests count inverse kinematics passes afresh",
    "scenario.warm_start_report":
        "says per height how far the warm-start IK reached (ROADMAP 5, 7)",
    "shapes.voxel_inertia_oracle":
        "the numerical ground truth of the closed-form inertias",
    "spatial.check_physical_inertia":
        "the physical-consistency check of the derived inertias",
}


def public_definitions(source):
    """``(qualified name, line)`` of each public module-level function
    or class and each public method of a module-level class."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def module_imports(tree, modules):
    """The aliases a parsed source binds to ``modules`` and the bare names
    it imports from them: ``({alias: module}, {name: (module, name)})``.

    ``modules`` are names within the ``ergolift`` package, imported
    absolutely or relatively.
    """
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                module = a.name.removeprefix("ergolift.")
                if module in modules:
                    aliases[a.asname or a.name] = module
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("ergolift.")
            for a in node.names:
                if base in ("", "ergolift") and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif base in modules:
                    names[a.asname or a.name] = (base, a.name)
    return aliases, names


def unread_public_names(sources, readers, traced=()):
    """``(module, line, name)`` of each public definition in ``sources``
    (module name to source) that no source in ``readers`` (reader name
    to source) reads, ``traced`` holding ``(module, attr)`` pairs read
    elsewhere.

    A module-level function or class is read as ``module.name`` on an
    alias of its module, as a bare name imported from its module or
    read in it, or through a ``traced`` pair; a method is read only as
    an attribute (``x.name``) or as part of a ``traced`` attr, so a
    local variable of its name does not read it.
    """
    read = {(m, attr.split(".")[0]) for m, attr in traced}
    attrs = {part for _, attr in traced for part in attr.split(".")}
    for reader, source in readers.items():
        tree = ast.parse(source)
        aliases, names = module_imports(tree, sources)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(names.get(n.id, (reader, n.id)))
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                if isinstance(n.value, ast.Name) and n.value.id in aliases:
                    read.add((aliases[n.value.id], n.attr))
    return sorted((module, line, name) for module, source in sources.items()
                  for name, line in public_definitions(source)
                  if ((module, name) not in read if "." not in name
                      else name.rsplit(".", 1)[-1] not in attrs))


def test_detects_unread_public_names():
    sources = {"a": "def kept():\n    pass\n\ndef gone():\n    pass\n\n"
                    "class Kept:\n    def read(self):\n        pass\n\n"
                    "    def unread(self):\n        pass\n\n"
                    "    def _private(self):\n        pass\n\n"
                    "class Traced:\n    pass\n"}
    readers = {**sources, "b": "import a\na.kept()\nx = a.Kept().read\n"}
    traced = {("a", "Traced")}
    unread = [("a", 4, "gone"), ("a", 11, "Kept.unread")]
    assert unread_public_names(sources, readers, traced) == unread
    # a module-level name is not read as another object's attribute, nor
    # as a bare name bound outside its module
    readers["c"] = "gone = 1\nx = obj.gone + gone\n"
    assert unread_public_names(sources, readers, traced) == unread
    readers["d"] = "from a import gone as g\ng()\n"
    assert unread_public_names(sources, readers, traced) == unread[1:]
    # a method is not read as a bare name, such as a local variable
    readers["e"] = "def f(unread):\n    return unread\nunread = 1\n"
    assert unread_public_names(sources, readers, traced) == unread[1:]


def test_public_names_are_read_outside_the_tests():
    sources = {p.stem: p.read_text()
               for p in sorted(ROOT.glob("src/ergolift/*.py"))}
    readers = {**sources, **{f"perfbench.{p.stem}": p.read_text()
                             for p in sorted(PERFBENCH.glob("*.py"))}}
    traced = {(module, attr) for module, attr in traced_names()}
    unread = {f"{module}.{name}" for module, _, name in
              unread_public_names(sources, readers, traced)}
    assert unread == set(TEST_SUPPORT)
