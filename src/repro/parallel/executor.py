"""The parallel cell executor: spawn fan-out, ordered merge, crash isolation.

Design constraints, in order:

1. **Determinism.** A sweep's *content* must not depend on worker count
   or scheduling. Cells are merged by submission index, and every cell
   must derive its randomness from its payload (see :func:`derive_seed`
   for the canonical helper), never from execution order.
2. **Crash isolation.** A cell that raises reports an error entry; a
   cell whose worker dies outright (``os._exit``, segfault, OOM kill)
   must not take the rest of the sweep with it. A broken pool triggers
   a one-cell-per-pool fallback for whatever was still unfinished, so
   the crash is charged to the cell that caused it and every other cell
   still completes. Cells are therefore required to be *pure*: the
   fallback re-runs cells whose first pool died under them.
3. **Process-safe progress.** Callbacks are never pickled. Worker code
   calls :func:`report_progress`, which routes through a queue owned by
   the parent; a drain thread invokes the user's callable locally. In
   serial mode the same :func:`report_progress` calls it directly, so
   task functions are written once and run identically in both modes.

The ``spawn`` start method is used everywhere: it is the only method
that behaves identically across platforms and it guarantees workers
import task functions fresh instead of inheriting arbitrary parent
state through ``fork``.
"""

from __future__ import annotations

import hashlib
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Cell",
    "CellResult",
    "derive_seed",
    "report_progress",
    "run_cells",
]


@dataclass(frozen=True)
class Cell:
    """One unit of independent work.

    ``key`` names the cell in progress messages and error entries and
    must be unique within a sweep; ``payload`` is handed to the task
    function and must be picklable (workers are separate processes).
    """

    key: str
    payload: Any = None


@dataclass
class CellResult:
    """Outcome of one cell, in the submission order of its Cell.

    ``ok`` distinguishes a value from a failure; ``error`` carries the
    formatted traceback (worker exception) or a crash note (worker
    death) so sweep reports can embed it.
    """

    key: str
    ok: bool
    value: Any = None
    error: Optional[str] = None


def derive_seed(base_seed: int, key: str) -> int:
    """A stable per-cell seed: hash of ``(base_seed, key)``.

    Cells must not share random streams and must not depend on
    execution order, so per-cell seeds are derived from the cell's
    *identity*, never from a shared counter. The hash keeps distinct
    keys statistically independent even when base seeds are small
    consecutive integers.
    """
    digest = hashlib.sha256(f"{base_seed}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1   # non-negative int64


# --------------------------------------------------------------- progress

# In a worker process this holds the parent's queue (installed by the
# pool initializer); in the parent's serial path it holds the user
# callable itself. Either way, task code only ever calls
# ``report_progress``.
_progress_sink: Any = None


def _pool_init(queue: Any) -> None:
    """Worker-side pool initializer: remember the progress queue."""
    global _progress_sink
    _progress_sink = queue


def report_progress(message: str) -> None:
    """Emit one progress line from inside a task function.

    No-op when the sweep runs without a progress callback. Never
    raises: progress is best-effort and must not fail a cell.
    """
    sink = _progress_sink
    if sink is None:
        return
    try:
        if callable(sink):
            sink(message)
        else:
            sink.put(message)
    except Exception:
        pass


def _drain_progress(queue: Any, progress: Callable[[str], None]) -> None:
    """Parent-side drain thread: queue messages -> local callback."""
    while True:
        try:
            msg = queue.get()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            progress(msg)
        except Exception:
            pass


# --------------------------------------------------------------- execution

def _call_cell(task: Callable[[Any], Any], key: str, payload: Any) -> Tuple[
    bool, Any, Optional[str]
]:
    """Worker entry: run one cell, never let an exception escape.

    Runs in the worker process (or inline in serial mode); converting
    failures to values here is what keeps one bad cell from aborting
    the pool's whole future set.
    """
    try:
        return True, task(payload), None
    except Exception as exc:
        return False, None, (
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )


def _run_serial(
    task: Callable[[Any], Any],
    cells: List[Cell],
    progress: Optional[Callable[[str], None]],
) -> List[CellResult]:
    """In-process execution; the default and the baseline for identity.

    The sink is saved and restored, not cleared: sweeps nest (a perf
    cell's task runs ``run_suite``, which is itself a ``run_cells``
    sweep), and the inner serial sweep must not clobber the outer
    sweep's progress routing -- including the queue sink a spawn
    worker was initialized with.
    """
    global _progress_sink
    prev = _progress_sink
    _progress_sink = progress
    try:
        out: List[CellResult] = []
        for cell in cells:
            out.append(CellResult(cell.key, *_call_cell(
                task, cell.key, cell.payload
            )))
        return out
    finally:
        _progress_sink = prev


def _run_isolated(
    task: Callable[[Any], Any],
    pending: List[Tuple[int, Cell]],
    results: List[Optional[CellResult]],
    queue: Any,
) -> None:
    """Crash fallback: one single-worker pool per remaining cell.

    Only entered after a worker died hard. Each cell gets a pool of its
    own, so a repeat crash is attributed to exactly the cell that
    caused it while every other cell still completes.
    """
    ctx = get_context("spawn")
    for i, cell in pending:
        try:
            with ProcessPoolExecutor(
                max_workers=1, mp_context=ctx,
                initializer=_pool_init, initargs=(queue,),
            ) as pool:
                outcome = pool.submit(
                    _call_cell, task, cell.key, cell.payload
                ).result()
            results[i] = CellResult(cell.key, *outcome)
        except BrokenProcessPool:
            results[i] = CellResult(
                cell.key, False, None,
                "worker process died while running this cell",
            )


def run_cells(
    task: Callable[[Any], Any],
    cells: Sequence[Cell],
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[CellResult]:
    """Run every cell through ``task``; results in submission order.

    ``task`` must be a module-level callable (workers import it by
    reference) mapping a cell's payload to its result value, and cells
    must be pure: independent of each other and reproducible from their
    payload alone. ``workers <= 1`` runs everything in-process with the
    exact same error handling, which is what keeps serial and parallel
    sweep reports identical cell for cell.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cell_list = list(cells)
    keys = [c.key for c in cell_list]
    if len(set(keys)) != len(keys):
        raise ValueError("cell keys must be unique within a sweep")
    if workers == 1 or len(cell_list) <= 1:
        return _run_serial(task, cell_list, progress)

    ctx = get_context("spawn")
    queue = ctx.Queue() if progress is not None else None
    drain: Optional[threading.Thread] = None
    if queue is not None:
        drain = threading.Thread(
            target=_drain_progress, args=(queue, progress), daemon=True
        )
        drain.start()
    results: List[Optional[CellResult]] = [None] * len(cell_list)
    try:
        broken = False
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cell_list)), mp_context=ctx,
            initializer=_pool_init, initargs=(queue,),
        ) as pool:
            futures = [
                (i, cell, pool.submit(_call_cell, task, cell.key, cell.payload))
                for i, cell in enumerate(cell_list)
            ]
            for i, cell, fut in futures:
                if broken:
                    # Pool is dead; salvage futures that finished
                    # before the crash, leave the rest for isolation.
                    if fut.done() and not fut.cancelled():
                        try:
                            results[i] = CellResult(cell.key, *fut.result())
                        except Exception:
                            pass
                    continue
                try:
                    outcome = fut.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                results[i] = CellResult(cell.key, *outcome)
        if broken:
            pending = [
                (i, cell) for i, (cell, res) in
                enumerate(zip(cell_list, results)) if res is None
            ]
            _run_isolated(task, pending, results, queue)
    finally:
        if queue is not None:
            queue.put(None)
            if drain is not None:
                drain.join(timeout=5.0)
            queue.close()
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
