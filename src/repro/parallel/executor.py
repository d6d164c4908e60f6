"""The parallel cell executor: pool fan-out, ordered merge, crash isolation.

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

Workers start with ``fork`` on Linux and ``spawn`` elsewhere
(:data:`START_METHOD`, chosen by ``sys.platform`` alone). A spawn
worker boots an interpreter (~0.15 s) and re-imports numpy and the
task's module (~0.4 s) before its first cell, all of which the parent
already holds; a forked worker is a copy of the parent and takes its
first cell ~10 ms after the pool starts (traced cold 4-shard fleet
calls on a 2-vCPU host: pool overhead 0.49 -> 0.22 s). Determinism
does not rest on how a worker starts: under the purity contract a
cell's result depends on its payload alone, so no parent state a fork
copies can reach it, and the serial == ``workers=2`` identity tests
pin that. The executor never forks with a thread of its own alive: the
progress drain starts only after a pool has forked its workers (all of
them at the first submit) and stops after they have exited, before the
crash fallback forks again; only workers ever put on the progress
queue, so the parent starts no queue feeder thread either.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from queue import Empty
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Cell",
    "CellResult",
    "derive_seed",
    "report_progress",
    "run_cells",
]

#: How pool workers start: ``fork`` on Linux (no interpreter boot, no
#: re-import), ``spawn`` on every other platform.
START_METHOD = "fork" if sys.platform == "linux" else "spawn"


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


#: How long the drain thread blocks on the queue before it looks at its
#: stop flag again.
_DRAIN_POLL_S = 0.05


class _Drain:
    """Parent-side progress drain: queue messages -> local callback.

    Its thread runs between :meth:`start`, called once a pool has forked
    its workers, and :meth:`stop`, called once they have exited (a
    worker flushes its queued messages as it exits), so no fork copies
    it. Stopping needs no message from the parent: the thread returns
    at its first empty poll after the stop flag is set.
    """

    def __init__(
        self, queue: Any, progress: Optional[Callable[[str], None]],
    ) -> None:
        self._queue = queue
        self._progress = progress
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._queue is None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while True:
            stopping = self._stop.is_set()
            try:
                msg = self._queue.get(timeout=_DRAIN_POLL_S)
            except Empty:
                if stopping:
                    return
                continue
            except (EOFError, OSError):
                return
            try:
                self._progress(msg)
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
    sweep's progress routing -- including the queue sink a pool worker
    was initialized with.
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


def _pool(workers: int, queue: Any) -> ProcessPoolExecutor:
    """The one way this module starts worker processes."""
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=get_context(START_METHOD),
        initializer=_pool_init, initargs=(queue,),
    )


def _run_isolated(
    task: Callable[[Any], Any],
    pending: List[Tuple[int, Cell]],
    results: List[Optional[CellResult]],
    queue: Any,
    drain: _Drain,
) -> None:
    """Crash fallback: one single-worker pool per remaining cell.

    Only entered after a worker died hard. Each cell gets a pool of its
    own, so a repeat crash is attributed to exactly the cell that
    caused it while every other cell still completes. The drain runs
    while each pool's one worker does, never across a fork.
    """
    for i, cell in pending:
        try:
            with _pool(1, queue) as pool:
                future = pool.submit(_call_cell, task, cell.key, cell.payload)
                drain.start()
                outcome = future.result()
            results[i] = CellResult(cell.key, *outcome)
        except BrokenProcessPool:
            results[i] = CellResult(
                cell.key, False, None,
                "worker process died while running this cell",
            )
        finally:
            drain.stop()


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

    queue = (get_context(START_METHOD).Queue()
             if progress is not None else None)
    drain = _Drain(queue, progress)
    results: List[Optional[CellResult]] = [None] * len(cell_list)
    try:
        with _pool(min(workers, len(cell_list)), queue) as pool:
            futures = []
            for i, cell in enumerate(cell_list):
                try:
                    futures.append((i, cell, pool.submit(
                        _call_cell, task, cell.key, cell.payload,
                    )))
                except BrokenProcessPool:
                    break   # a worker already died; the rest is isolated
            drain.start()
            for i, cell, fut in futures:
                # A broken pool fails every unfinished future at once;
                # what finished before the crash is kept.
                try:
                    results[i] = CellResult(cell.key, *fut.result())
                except BrokenProcessPool:
                    pass
        drain.stop()
        pending = [
            (i, cell) for i, (cell, res) in
            enumerate(zip(cell_list, results)) if res is None
        ]
        if pending:
            _run_isolated(task, pending, results, queue, drain)
    finally:
        drain.stop()
        if queue is not None:
            queue.close()
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
