"""Lazy package exports (PEP 562).

A package re-exports its public names through :func:`lazy_exports`, so
importing the package, or any one of its submodules, runs no sibling
submodule: ``from repro.tmu import TmuConfig`` imports
``repro.tmu.config`` alone, on first use.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, Iterable


def lazy_exports(package: str, exports: Dict[str, Iterable[str]]):
    """``(__getattr__, __dir__)`` for *package*, from *exports*: each
    submodule name mapped to the public names it defines.

    A name is looked up in its submodule on first access, which imports
    it, and then cached in the package's globals, so later lookups never
    reach ``__getattr__``.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
