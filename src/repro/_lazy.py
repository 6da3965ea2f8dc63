"""PEP 562 lazy re-exports for package roots.

A package root that re-exports names from its submodules would otherwise
import every one of those submodules — and everything they import — the
moment any part of the package is touched.  :func:`lazy_exports` builds
the module-level ``__getattr__``/``__dir__`` pair that imports a
submodule only when one of its names is first looked up, then caches the
value in the package namespace so later lookups are plain attribute
reads.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(package: str, namespace: dict[str, Any], exports: Mapping[str, str],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` resolving ``exports`` (name → module) lazily.

    ``namespace`` is the package's ``globals()``: each resolved name is
    stored there, so ``__getattr__`` runs at most once per name.
    Unknown names raise :class:`AttributeError`, as for any module.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
