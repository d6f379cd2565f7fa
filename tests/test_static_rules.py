"""The lint verdict, offline: ruff's selected rules, checked with the stdlib.

``pyproject.toml`` selects ``E9``, ``F63``, ``F7``, ``F82`` and ``F401``, and CI
runs ruff on them (``make lint``).  This test reaches the same verdict on
``src tests benchmarks scripts examples`` with ``compile`` and ``ast``
alone, so it runs where ruff is not installed:

* E9 / F7: the file does not parse (``E999``), or ``compile`` refuses a
  statement out of place: ``break`` (``F701``) or ``continue`` (``F702``)
  outside a loop, ``yield`` / ``await`` (``F704``) or ``return`` (``F706``)
  outside a function, a bare ``except:`` before another handler (``F707``).
* F63: ``assert`` on a non-empty tuple (``F631``); ``is`` / ``is not``
  against a str, bytes or number literal (``F632``); ``print >>``
  (``F633``); ``if`` / ``elif`` on a non-empty tuple (``F634``).
* F82: a name that no scope in reach, the module or the builtins binds
  (``F821``); an ``__all__`` entry the module does not bind (``F822``); a
  function reading a local before its first binding while an enclosing
  scope binds the same name (``F823``).
* F401: an import that nothing in its scope, or a scope nested in it,
  reads.  A name in an annotation, quoted or not, is read.  So is every
  string in ``__all__``, in a package's ``_EXPORTS`` map and in a
  ``lazy_exports(...)`` call, and ``import a as a`` is a re-export.

Names resolve the way Python resolves them: a function's locals are the
names it binds anywhere (unless declared ``global`` / ``nonlocal``), a class
body is not in reach of the functions inside it, and module and class code
runs in order, so it reads only what is bound above it.  A module with a
star import is not checked for ``F821``.  ``# noqa`` on the reported line,
bare or naming the code (or a prefix of it), silences a report, as in ruff.
"""

import ast
import builtins
import re
import warnings
from itertools import count
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")

#: ``compile``'s refusals that ruff reports under an F7 code.
F7_MESSAGES = {
    "'break' outside loop": "F701",
    "'continue' not properly in loop": "F702",
    "'return' outside function": "F706",
    "outside function": "F704",  # 'yield', 'yield from', 'await'
    "default 'except:' must be last": "F707",
}

#: Names code can read without binding them.  The class-body and method
#: names are accepted anywhere, which errs toward silence.
PREDEFINED = set(dir(builtins)) | {
    "__file__", "__builtins__", "__annotations__", "__path__", "__cached__",
    "__module__", "__qualname__", "__class__",
}

NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[\s,]+[A-Z]+[0-9]+)*))?", re.I)


class Scope:
    """One namespace: its bindings, reads, imports and declarations."""

    def __init__(self, kind: str, parent: "Scope | None"):
        self.kind = kind  # "module" | "class" | "function" | "comprehension"
        self.parent = parent
        self.bindings: dict[str, list[int]] = {}  # name -> visit order of each binding
        self.reads: list[tuple[str, int, int, bool]] = []  # name, line, order, deferred
        self.imports: list[tuple[str, tuple[int, ...]]] = []  # name, report lines
        self.declared: dict[str, str] = {}  # name -> "global" | "nonlocal"
        self.used: set[str] = set()
        self.star = False

    def module(self) -> "Scope":
        return self if self.parent is None else self.parent.module()


class Checker(ast.NodeVisitor):
    """One file's scopes, built in Python's evaluation order."""

    def __init__(self) -> None:
        self.order = count()
        self.scope = Scope("module", None)
        self.scopes = [self.scope]
        self.strings: set[str] = set()  # module strings that read a name
        self.reports: list[tuple[tuple[int, ...], str, str]] = []
        self.all_names: list[tuple[str, int]] = []

    # -- scopes --------------------------------------------------------------

    def _enter(self, kind: str) -> Scope:
        scope = Scope(kind, self.scope)
        self.scopes.append(scope)
        return scope

    def _run_in(self, scope: Scope, nodes) -> None:
        outer, self.scope = self.scope, scope
        for node in nodes:
            self.visit(node)
        self.scope = outer

    def bind(self, name: str, scope: Scope | None = None) -> None:
        scope = scope or self.scope
        how = scope.declared.get(name)
        if how == "global":
            scope = scope.module()
        elif how == "nonlocal":
            return
        scope.bindings.setdefault(name, []).append(next(self.order))

    def read(self, name: str, line: int, *, deferred: bool = False) -> None:
        self.scope.reads.append((name, line, next(self.order), deferred))

    # -- annotations ---------------------------------------------------------

    def annotation(self, node: ast.AST | None) -> None:
        """Every name in an annotation is a (deferred) read, quoted or not."""
        if node is None:
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval").body
            except SyntaxError:
                return
            for inner in ast.walk(parsed):
                ast.copy_location(inner, node)
            node = parsed
        if isinstance(node, ast.Subscript):
            self.annotation(node.value)
            head = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(
                node.value, "id", ""
            )
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if head == "Literal":
                args = []
            elif head == "Annotated":
                args = args[:1]
            for arg in args:
                self.annotation(arg)
        elif isinstance(node, ast.Name):
            self.read(node.id, node.lineno, deferred=True)
        else:
            for child in ast.iter_child_nodes(node):
                self.annotation(child)

    # -- binding constructs --------------------------------------------------

    def _function(self, node) -> None:
        """Decorators, defaults and annotations read in the enclosing scope;
        the parameters bind, and the body runs, in the function's own."""
        args = node.args
        for expression in [*getattr(node, "decorator_list", ()), *args.defaults]:
            self.visit(expression)
        for default in args.kw_defaults:
            if default is not None:
                self.visit(default)
        parameters = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        parameters += [a for a in (args.vararg, args.kwarg) if a is not None]
        for parameter in parameters:
            self.annotation(parameter.annotation)
        self.annotation(getattr(node, "returns", None))
        if not isinstance(node, ast.Lambda):
            self.bind(node.name)
        inner = self._enter("function")
        for parameter in parameters:
            self.bind(parameter.arg, inner)
        self._run_in(inner, [node.body] if isinstance(node, ast.Lambda) else node.body)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expression in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(expression)
        self._run_in(self._enter("class"), node.body)
        self.bind(node.name)

    def _comprehension(self, node) -> None:
        self.visit(node.generators[0].iter)
        inner = self._enter("comprehension")
        outer, self.scope = self.scope, inner
        for index, generator in enumerate(node.generators):
            if index:
                self.visit(generator.iter)
            self.visit(generator.target)
            for condition in generator.ifs:
                self.visit(condition)
        for part in ("elt", "key", "value"):
            if hasattr(node, part):
                self.visit(getattr(node, part))
        self.scope = outer

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self.bind(node.id)
        else:
            self.read(node.id, node.lineno)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        scope = self.scope
        while scope.kind == "comprehension":
            scope = scope.parent
        self.bind(node.target.id, scope)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)
        self._module_strings(node.targets, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.read(node.target.id, node.lineno)
        self.visit(node.value)
        self.visit(node.target)
        self._module_strings([node.target], node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.annotation(node.annotation)
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)

    def visit_For(self, node) -> None:
        self.visit(node.iter)
        self.visit(node.target)
        for statement in [*node.body, *node.orelse]:
            self.visit(statement)

    visit_AsyncFor = visit_For

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is not None:
            self.visit(node.type)
        if node.name:
            self.bind(node.name)
        for statement in node.body:
            self.visit(statement)

    def visit_MatchAs(self, node) -> None:
        self.generic_visit(node)
        if node.name:
            self.bind(node.name)

    visit_MatchStar = visit_MatchAs

    def visit_MatchMapping(self, node) -> None:
        self.generic_visit(node)
        if node.rest:
            self.bind(node.rest)

    def visit_Global(self, node) -> None:
        # Python refuses a binding or read above the declaration, so every
        # use of the name is visited after this.
        how = "global" if isinstance(node, ast.Global) else "nonlocal"
        self.scope.declared.update(dict.fromkeys(node.names, how))

    visit_Nonlocal = visit_Global

    def visit_Import(self, node) -> None:
        for alias in node.names:
            if alias.name == "*":
                self.scope.star = True
                continue
            name = alias.asname or alias.name.split(".")[0]
            self.bind(name)
            reexport = alias.asname == alias.name
            if getattr(node, "module", None) != "__future__" and not reexport:
                lines = (getattr(alias, "lineno", node.lineno), node.lineno)
                self.scope.imports.append((name, lines))

    visit_ImportFrom = visit_Import

    # -- F63 and the module's export strings ---------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if isinstance(node.test, ast.Tuple) and node.test.elts:
            self.reports.append(((node.lineno,), "F631", "assert on a non-empty tuple"))
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        if isinstance(node.test, ast.Tuple) and node.test.elts:
            self.reports.append(((node.lineno,), "F634", "if on a non-empty tuple"))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Is, ast.IsNot)) and (_literal(left) or _literal(right)):
                self.reports.append(((node.lineno,), "F632", "`is` against a literal"))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.RShift)
            and isinstance(node.left, ast.Name)
            and node.left.id == "print"
        ):
            self.reports.append(((node.lineno,), "F633", "`print >>`"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "lazy_exports":
            self.strings |= _strings(node)
        elif (
            name == "extend"
            and isinstance(func.value, ast.Name)
            and func.value.id == "__all__"
            and self.scope.kind == "module"
        ):
            self._module_strings([func.value], node.args[0] if node.args else None)
        self.generic_visit(node)

    def _module_strings(self, targets, value) -> None:
        if self.scope.kind != "module" or value is None:
            return
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if names & {"__all__", "_EXPORTS"}:
            self.strings |= _strings(value)
        if "__all__" in names and isinstance(value, (ast.List, ast.Tuple)):
            self.all_names += [
                (element.value, element.lineno)
                for element in value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            ]


def _literal(node: ast.AST) -> bool:
    """A str / bytes / number literal, or a tuple of literals (F632)."""
    if isinstance(node, ast.Constant):
        return not isinstance(node.value, (bool, type(None), type(...)))
    return isinstance(node, ast.Tuple) and bool(node.elts) and all(
        _literal(element) or isinstance(element, ast.Constant) for element in node.elts
    )


def _strings(node: ast.AST) -> set[str]:
    return {
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, str)
    }


def _owners(scope: Scope, name: str, order: int, deferred: bool) -> list[Scope]:
    """The scopes in reach of ``scope`` that bind ``name``, nearest first.

    A read uses the nearest.  Module and class code runs in order, so a read
    there that no function body defers sees only the bindings made above
    it.  An annotation may be evaluated late or never, so it counts as a
    use of every binding in reach.
    """
    owners = []
    current, first, immediate = scope, True, not deferred
    while current is not None:
        how = current.declared.get(name) if first else None
        if how is None and (first or current.kind != "class"):
            seen = current.bindings.get(name, ())
            if immediate and current.kind != "function":
                seen = [at for at in seen if at < order]
            if seen:
                owners.append(current)
        immediate = immediate and current.kind != "function"
        current = current.module() if how == "global" else current.parent
        first = False
    return owners


def check_source(source: str, path: str = "<seeded>") -> list[str]:
    """Every report for one file, as ``path:line: CODE message``."""
    #: (lines, code, message): reported at the first line, silenced by a
    #: ``# noqa`` on any of them (an import alias's line, then its statement's)
    reports: list[tuple[tuple[int, ...], str, str]] = []
    try:
        tree = ast.parse(source, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compile(tree, path, "exec")
    except SyntaxError as error:
        code = next((c for text, c in F7_MESSAGES.items() if text in error.msg), "E999")
        reports.append(((error.lineno or 1,), code, error.msg))
        return _unsilenced(reports, source, path)

    checker = Checker()
    checker.visit(tree)
    reports += checker.reports
    module = checker.scope
    starred = any(scope.star for scope in checker.scopes)
    for scope in checker.scopes:
        for name, line, order, deferred in scope.reads:
            owners = _owners(scope, name, order, deferred)
            for owner in owners if deferred else owners[:1]:
                owner.used.add(name)
            if not owners and name not in PREDEFINED and not starred:
                reports.append(((line,), "F821", f"undefined name {name!r}"))
        reports += _undefined_locals(scope)
    module.used |= checker.strings
    for name, line in checker.all_names:
        if name not in module.bindings and not starred:
            reports.append(((line,), "F822", f"undefined name {name!r} in __all__"))
    for scope in checker.scopes:
        for name, lines in scope.imports:
            if name not in scope.used:
                reports.append((lines, "F401", f"{name!r} imported but unused"))
    return _unsilenced(reports, source, path)


def _undefined_locals(scope: Scope) -> list:
    """F823: a function reads a name it binds, before binding it, while an
    enclosing scope binds it too."""
    if scope.kind != "function":
        return []
    found = []
    for name, line, order, deferred in scope.reads:
        mine = scope.bindings.get(name)
        if deferred or not mine or order > min(mine):
            continue
        enclosing = scope.parent
        while enclosing is not None and (
            enclosing.kind == "class" or name not in enclosing.bindings
        ):
            enclosing = enclosing.parent
        if enclosing is not None:
            found.append(((line,), "F823", f"local {name!r} read before assignment"))
    return found


def _unsilenced(reports, source: str, path: str) -> list[str]:
    text = source.splitlines()
    return [
        f"{path}:{lines[0]}: {code} {message}"
        for lines, code, message in reports
        if not any(_silenced(text, line, code) for line in lines)
    ]


def _silenced(lines: list[str], line: int, code: str) -> bool:
    if not 0 < line <= len(lines):
        return False
    match = NOQA.search(lines[line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or any(
        code.startswith(listed.upper()) for listed in re.split(r"[\s,]+", codes)
    )


def checked_files() -> list[Path]:
    return [
        path
        for directory in CHECKED_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]


def test_the_tree_passes_the_selected_rules():
    reports = []
    for path in checked_files():
        reports += check_source(path.read_text(), str(path.relative_to(ROOT)))
    assert not reports, "\n".join(reports)


#: One seeded violation per code, and the F821 cases that need the order
#: and class-scope rules.
SEEDED = [
    ("E999", "def broken(:\n    pass\n"),
    ("F631", "assert (1, 'always true')\n"),
    ("F632", "x = 3\nprint(x is 3)\n"),
    ("F633", "import sys\nprint >> sys.stderr\n"),
    ("F634", "x = 1\nif (x, 2):\n    pass\n"),
    ("F701", "break\n"),
    ("F702", "continue\n"),
    ("F704", "yield 1\n"),
    ("F706", "return 1\n"),
    ("F707", "try:\n    pass\nexcept:\n    pass\nexcept ValueError:\n    pass\n"),
    ("F821", "def f():\n    return undefined_here\n"),
    ("F821", "y = x\nx = 1\n"),  # module code reads only what is bound above it
    ("F821", "class C:\n    x = 1\n    def m(self):\n        return x\n"),
    ("F822", "__all__ = ['missing']\n"),
    ("F823", "total = 0\ndef f():\n    print(total)\n    total = 1\n"),
    ("F401", "import os\n"),
]


@pytest.mark.parametrize(
    "code, source",
    [pytest.param(code, source, id=f"{code}-{i}") for i, (code, source) in enumerate(SEEDED)],
)
def test_each_seeded_violation_is_caught(code, source, tmp_path):
    seeded = tmp_path / "seeded.py"
    seeded.write_text(source)
    reports = check_source(seeded.read_text(), seeded.name)
    assert [report.split()[1] for report in reports] == [code], reports


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("import os  # noqa\n", id="bare-noqa"),
        pytest.param("import os  # noqa: F401\n", id="noqa-code"),
        pytest.param("from a import (\n    b,  # noqa: F401\n)\n", id="noqa-on-the-alias"),
        pytest.param("import os\n__all__ = ['os']\n", id="all-entry"),
        pytest.param("from . import x\n_EXPORTS = {'m': ('x',)}\n", id="exports-map"),
        pytest.param(
            "import os\nfrom _lazy import lazy_exports\n"
            "lazy_exports(__name__, {}, eager=('os',))\n",
            id="lazy-exports-call",
        ),
        pytest.param("from os import PathLike\ndef f(p: 'PathLike[str]'): pass\n", id="quoted"),
        pytest.param(
            "from __future__ import annotations\nimport os\n"
            "def f() -> os.PathLike: pass\n",
            id="deferred-annotation",
        ),
        pytest.param("from a import b as b\n", id="explicit-reexport"),
        pytest.param(
            "import os\ndef f():\n    def g():\n        return os\n    return g\n",
            id="read-in-a-nested-function",
        ),
        pytest.param(
            "class C:\n    x = [1]\n    y = [i for i in x]\n"
            "    def m(self):\n        return __class__\n",
            id="class-scope",
        ),
        pytest.param("def f():\n    global g\n    g = 1\ndef h():\n    return g\n", id="global"),
        pytest.param("def f():\n    return later()\ndef later():\n    pass\n", id="deferred-body"),
    ],
)
def test_clean_sources_report_nothing(source):
    assert check_source(source) == []


# -- who plans ------------------------------------------------------------------

#: The serving path: the packages a statement crosses from gateway to shard.
SERVING_PACKAGES = ("service", "federation", "sharding")
#: Where ``plans`` were threaded from the gateway to the shards.
PLAN_THREADED = (
    "federation/coordinator.py",
    "federation/dp_release.py",
    "sharding/federation.py",
    "sharding/shards.py",
    "service/gateway.py",
)
NAMES_PLANS = re.compile(r"\bplans\b")


def _plan_calls(path: Path) -> list[str]:
    """``<path>:<line>`` of every ``<expr>.plan(...)`` call in ``path``."""
    tree = ast.parse(path.read_text())
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "plan"
    ]


def test_each_federation_class_plans_in_one_place():
    """A statement is planned by its federation's plan stage
    (``plan_for``), one per federation class: everything else on the
    serving path asks the stage, so a planner's ``.plan(`` is called at
    most twice there (seven sites at the parent of this rule)."""
    calls = [
        call
        for package in SERVING_PACKAGES
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
        for call in _plan_calls(path)
    ]
    assert len(calls) <= 2, calls


def test_plans_travel_only_across_the_shard_boundary():
    """Lines naming ``plans`` in the five files that used to thread them
    (42 at the parent of this rule): what is left sits at the shard boundary
    or in the flat federation's private batch body."""
    lines = [
        f"{name}:{number}"
        for name in PLAN_THREADED
        for number, line in enumerate(
            (ROOT / "src" / "repro" / name).read_text().splitlines(), start=1
        )
        if NAMES_PLANS.search(line)
    ]
    assert len(lines) <= 12, lines
