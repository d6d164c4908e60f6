"""Importable task functions for exercising the parallel executor.

Spawn workers import tasks by module path, so the tasks used by the
test suite must live in a real module -- lambdas and locals defined in
a test body cannot cross the process boundary. Kept inside the package
(not under ``tests/``) so they resolve regardless of how pytest sets
up ``sys.path`` in the children.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple

from repro.parallel.executor import derive_seed, report_progress


def echo_task(payload: Any) -> Any:
    """Return the payload unchanged (ordering/merge tests)."""
    return payload


def square_task(payload: int) -> int:
    """Deterministic arithmetic with the pid attached nowhere."""
    return payload * payload


def seeded_task(payload: Tuple[int, str]) -> Dict[str, int]:
    """Derive a per-cell seed the canonical way (determinism tests)."""
    base_seed, key = payload
    return {"seed": derive_seed(base_seed, key), "pid_independent": 1}


def failing_task(payload: Any) -> Any:
    """Raise inside the worker (error-entry isolation tests)."""
    if payload == "boom":
        raise ValueError("requested failure")
    return payload


def hard_exit_task(payload: Any) -> Any:
    """Kill the worker process outright (crash-isolation tests).

    ``os._exit`` skips all interpreter cleanup, exactly like a native
    crash would; the executor must confine the damage to this cell.
    """
    if payload == "die":
        os._exit(13)
    return payload


def progress_task(payload: Any) -> Any:
    """Emit a progress line from inside the worker (queue routing)."""
    report_progress(f"cell {payload} running")
    return payload

