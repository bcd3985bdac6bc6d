"""Package names that load on first access (PEP 562).

A package ``__init__`` that imports its submodules eagerly makes every
``import repro.x.y`` pay for all of them — a compressor process that
needs only :mod:`repro.mp.workers` would import the planner and the
simulator — and hides import cycles behind the order it happens to
import in.  :func:`lazy_exports` gives a package its ``__getattr__``,
``__dir__`` and ``__all__`` from a table of where each public name
lives, so ``from repro import X`` still works and imports only what
``X`` needs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, where: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names live in the modules ``where`` maps to them."""
    origin = {name: module for module, names in where.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
