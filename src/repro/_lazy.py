"""Lazy package exports (PEP 562): a package names what it exports, and a
name's defining submodule is imported when the name is first asked for.

Every package ``__init__`` states its ``submodule -> names`` map once and
binds what :func:`lazy_exports` returns::

    _EXPORTS = {"driver": ("RunConfig", "run_topk_query"), "kernel": ("KernelRun",)}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

so ``import repro.experiments.figures.registry`` loads the modules the
registry uses and not every module of every package on the way (DESIGN.md,
"Cold start").
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]], eager: tuple[str, ...] = ()
):
    """The ``(__getattr__, __dir__, __all__)`` of a package exporting ``exports``.

    ``eager`` lists the public names the package binds itself, so ``__all__``
    and ``dir()`` still name them.  A lookup is answered from the defining
    module on every access and never stored in the package's namespace: a name
    first touched while ``mock.patch`` or a span recorder has replaced it must
    not outlive the patch there.
    """
    origin = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }
    public = sorted({*origin, *eager})

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *public})

    return __getattr__, __dir__, public
