"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares what it re-exports as a table and
:func:`lazy_exports` defers each submodule import to the first use of
one of its names. ``import repro.serve.fleet`` -- what a cold caller
and, off Linux, a spawn worker do to serve shards -- then loads the
shard path only, not the campaigns, the report kernel or the telemetry
plane the package re-exports beside it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], List[str]]:
    """The ``(__getattr__, __all__)`` pair of a package.

    ``table`` maps a module path to the names the package re-exports
    from it; names listed under ``package`` itself are its submodules.
    A resolved name is stored in the package's namespace, so the hook
    runs once per name.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        if module == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(where)
