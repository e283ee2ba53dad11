"""Lazy package roots (PEP 562).

A package root lists its public names in ``__all__`` and maps each one to
the module that defines it; nothing is imported until a name is first
read.  ``import repro.cli`` then costs what the command needs instead of
the whole simulator, and the numerical twin (NumPy) loads only when an
array function runs.

Usage, at the bottom of a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.engine": ("TrainingSimulation", "IterationResult"),
    }, submodules=("presets",))

``submodules`` names the package's own submodules that are exported as
modules.  The first read of a name binds it in the package namespace, so
later reads are plain attribute lookups.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package root ``package``:
    ``exports`` maps each defining module to the names it provides."""
    where: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    where.update((name, f"{package}.{name}") for name in submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = import_module(module)
        value = loaded if name in submodules else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
