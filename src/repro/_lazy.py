"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Each package ``__init__`` names the modules its public names live in and
nothing is imported until one of those names is first read.  ``python -m
repro table1`` therefore loads only the modules the table is computed
from, not the MPI compiler, the static analyzer or NumPy.  A resolved name
is stored in the package namespace, so later reads are plain attribute
lookups that never reach the hook again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``'s ``__init__``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name outside that table that is a submodule of
    the package is imported and returned, as it would have been had an
    eager ``__init__`` imported it; anything else is an
    :class:`AttributeError`.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
