"""Lazy package re-exports (PEP 562).

A package ``__init__`` names what it re-exports and the module that
defines each name::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Simulator": "repro.sim.engine",
        "Timeout": "repro.sim.engine",
    })

Importing the package then imports none of those modules.  The first
access to a name (``repro.sim.Simulator``, ``from repro.sim import
Simulator``, ``from repro.sim import *``) imports its defining module
and caches the value in the package's globals, so later accesses are
plain attribute reads.  ``__all__`` is the table's keys, so the two
cannot drift.

One exception is bound eagerly: a name that is also the last part of
its defining module's name (``repro.analysis.compare`` the function,
defined in ``repro.analysis.compare`` the module).  Importing that
submodule from anywhere binds the module over the package attribute,
which a lazy entry would never undo.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, exports: Mapping[str, str]) -> tuple[
        Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``
    re-exporting each ``name`` of ``exports`` from ``exports[name]``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    for name, module in exports.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, list(exports)
