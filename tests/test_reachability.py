"""Reachable or removed: the module census (DESIGN.md 4i).

A module stays under ``src/repro`` only if a front end imports it
transitively, or it sits in :data:`ALLOWED` with a one-line reason.  The
front ends are the two entry points the repo ships — the ``repro-topk``
CLI and the figure registry — and every ``repro`` import of the files under ``bench/``, ``benchmarks/`` and
``scripts/``.  ``examples/`` and ``tests/`` are not roots: a demonstration or
a test of a module is not a caller of it.  A string that is exactly a
module's dotted name is an edge like an import: the figure registry names
the figure modules it imports on first run that way, and ``bench/spans.py``
its patch targets.

Static (``ast`` only, nothing imported, no subprocess).  The comparison is
two-sided: a new island fails it, and so does an allowlisted module that
became reachable — ``ALLOWED`` only shrinks.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.figures.registry",
)
ROOT_DIRS = ("bench", "benchmarks", "scripts")

#: Modules no front end reaches, each with the reason it is kept anyway.
ALLOWED = {
    "repro.core.max_protocol": (
        "Algorithm 1 as printed: the reference the k = 1 top-k path is tested against"
    ),
    "repro.database.io": (
        "the outside-input boundary: the only ingestion path for data from "
        "outside the program, and its checks are safety code"
    ),
    "repro.extensions.kth_element": (
        "related-work baseline an EXPERIMENTS.md ablation row executes "
        "(test_topk_ring_is_cheaper_than_binary_search_for_the_kth_value)"
    ),
    "repro.extensions.knn": (
        "Section 7 future work, DESIGN.md inventory row 16: the one thing in "
        "the tree that composes bottom-k with secure sums"
    ),
    "repro.network.trust": (
        "Section 4.3 trust-aware ring an EXPERIMENTS.md ablation row executes "
        "(test_trusted_ring_pins_suspected_colluders_together)"
    ),
}

CITES = re.compile(r"Section \d|Algorithm \d|DESIGN\.md|EXPERIMENTS\.md|boundary")


def _source_modules() -> dict[str, Path]:
    """Dotted name -> file, for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _source_modules()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _export_origins(tree: ast.Module, package: str) -> dict[str, str]:
    """Name -> defining module, from a package's literal ``_EXPORTS`` map."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            return {
                name: f"{package}.{submodule}"
                for submodule, names in ast.literal_eval(node.value).items()
                for name in names
            }
    return {}


TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}
ORIGINS = {package: _export_origins(TREES[package], package) for package in PACKAGES}


def _with_ancestors(module: str) -> set[str]:
    """``module`` and the packages whose ``__init__`` importing it runs."""
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()


def _imports(tree: ast.AST, importer: str | None) -> set[str]:
    """The ``repro`` modules ``tree`` imports, at any depth of nesting.

    ``importer`` resolves relative imports (``None`` outside the package).
    ``from pkg import Name`` goes to the module ``pkg``'s export map names,
    else to ``pkg.Name`` if that is a module, else to ``pkg``.  A string
    constant that is exactly a module's name counts too — the figure
    registry's entries and ``bench/spans.py``'s patch targets name their
    modules that way.
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_ancestors(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = importer.split(".")
                if importer not in PACKAGES:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            if base not in MODULES:
                continue
            for alias in node.names:
                origin = ORIGINS.get(base, {}).get(alias.name)
                submodule = f"{base}.{alias.name}"
                found |= _with_ancestors(
                    origin or (submodule if submodule in MODULES else base)
                )
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            found |= _with_ancestors(node.value)
    return found


def _roots() -> set[str]:
    roots = set()
    for entry in ENTRY_POINTS:
        roots |= _with_ancestors(entry)
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            roots |= _imports(ast.parse(path.read_text()), None)
    return roots


def _closure(roots: set[str]) -> set[str]:
    graph = {name: _imports(tree, name) for name, tree in TREES.items()}
    seen, frontier = set(roots), list(roots)
    while frontier:
        for target in graph[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def test_entry_points_exist():
    assert set(ENTRY_POINTS) <= MODULES.keys()


def test_every_module_is_reachable_or_allowlisted():
    islands = MODULES.keys() - _closure(_roots())
    assert islands == ALLOWED.keys(), (
        f"unreachable and not allowlisted: {sorted(islands - ALLOWED.keys())}; "
        f"allowlisted but reachable (drop the entry): {sorted(ALLOWED.keys() - islands)}"
    )


def test_every_allowlisted_reason_cites_the_paper_a_document_or_the_boundary():
    for module, reason in ALLOWED.items():
        assert CITES.search(reason), f"{module}: {reason!r} cites nothing"
