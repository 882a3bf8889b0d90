"""Process-pool primitives: stateless sweeps and sticky workers.

Two execution shapes share this module:

- :func:`run_cells` fans a sweep of *independent* cells across a
  throwaway :class:`~concurrent.futures.ProcessPoolExecutor`, one task
  per cell (the figure-experiment idiom);
- :class:`WorkerPool` keeps a fixed set of *sticky* workers alive for
  a whole run.  Each worker builds private state once (via the
  ``init_fn``) and every subsequent call runs against that state, so
  expensive simulator state never pickles between steps — only the
  small per-call argument/result records cross the pipe.  The multi-PE
  job executor uses this to keep each PE's
  :class:`~repro.des.adaptation.DesAdaptationRunner` resident in one
  worker for the duration of an adaptation run.

Determinism: a cell's (or worker's) random state is fully determined
by the seeds in its arguments — :func:`derive_seed` produces stable,
decorrelated per-cell seeds with BLAKE2 (unlike ``hash()``, which is
salted), so results are identical whether work runs serially, in a
pool, or in a pool of different width.

Environments without POSIX semaphores or ``fork``/``spawn`` support
(tight sandboxes) cannot host process pools at all; *infrastructure*
failures therefore degrade gracefully — :func:`run_cells` falls back
to an in-process serial loop, and :class:`WorkerPool` raises
:class:`WorkerPoolError` at construction so callers can fall back
likewise.  Genuine worker errors are re-raised with the worker's
traceback, not swallowed.

``REPRO_PARALLEL=0`` forces sweeps serial; ``REPRO_JOB_WORKERS=N``
sets the default sticky-pool width (see :func:`job_workers`).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import struct
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "WorkerPool",
    "WorkerPoolError",
    "derive_seed",
    "job_workers",
    "parallel_enabled",
    "run_cells",
]

# Pool-infrastructure failures that mean "this environment cannot run
# a process pool", as opposed to errors raised by the workload itself.
_POOL_INFRA_ERRORS = (
    BrokenProcessPool,
    OSError,
    PermissionError,
    ImportError,
    pickle.PicklingError,
)

# What a caller with a serial fallback should treat as "parallelism
# unavailable" when *starting* a sticky pool: infrastructure failures
# plus unpicklable arguments (closures/bound methods raise
# AttributeError or TypeError from the pickler, not PicklingError).
POOL_START_ERRORS = _POOL_INFRA_ERRORS + (AttributeError, TypeError)


def derive_seed(base_seed: int, *key: Any) -> int:
    """Stable, decorrelated seed for one sweep cell.

    Hashes ``base_seed`` together with the cell's identifying values
    (``repr``-encoded) into a 63-bit integer.  Unlike ``hash()``, the
    result does not depend on ``PYTHONHASHSEED``, so a cell gets the
    same seed in the parent, in a pool worker, and across runs.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", base_seed))
    for part in key:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFFFFFFFFFF


def parallel_enabled(override: Optional[bool] = None) -> bool:
    """Whether sweeps should fan out to a process pool.

    ``override`` wins when given; otherwise ``REPRO_PARALLEL=0`` (or
    ``false``/``no``/``off``) disables, and anything else enables.
    """
    if override is not None:
        return override
    flag = os.environ.get("REPRO_PARALLEL", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


def job_workers(override: Optional[int] = None) -> int:
    """Worker-pool width for multi-PE job runs.

    Same precedence as :func:`parallel_enabled`: an explicit
    ``override`` (e.g. the ``--jobs`` CLI flag) wins; otherwise the
    ``REPRO_JOB_WORKERS`` environment variable; otherwise 1, i.e. the
    sequential path.  Values below 1 (and unparsable ones) clamp to 1.
    """
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get("REPRO_JOB_WORKERS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return 1


def _invoke(task: Tuple[Callable[..., Any], Tuple[Any, ...]]) -> Any:
    worker, cell = task
    return worker(*cell)


def run_cells(
    worker: Callable[..., Any],
    cells: Iterable[Sequence[Any]],
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Run ``worker(*cell)`` for every cell, results in cell order.

    ``worker`` must be a module-level (picklable) callable and each
    cell a tuple of picklable arguments.  Falls back to an in-process
    serial loop when the pool cannot be created or torn up mid-sweep
    (see module docstring); worker errors propagate unchanged.
    """
    from ..bench import cache

    cell_list = [tuple(cell) for cell in cells]
    if len(cell_list) < 2 or not parallel_enabled(parallel):
        return [worker(*cell) for cell in cell_list]
    workers = max_workers or min(len(cell_list), os.cpu_count() or 1)
    # Seed workers with the parent's memoized measurement cells
    # (repro.bench.cache): a sweep re-running a grid the parent has
    # already (partially) computed skips those cells in every worker.
    seed_cache = cache.snapshot() if cache.memo_enabled() else {}
    pool_kwargs = (
        {"initializer": cache.install, "initargs": (seed_cache,)}
        if seed_cache
        else {}
    )
    try:
        with ProcessPoolExecutor(max_workers=workers, **pool_kwargs) as pool:
            return list(
                pool.map(_invoke, [(worker, c) for c in cell_list])
            )
    except _POOL_INFRA_ERRORS:
        return [worker(*cell) for cell in cell_list]


class WorkerPoolError(RuntimeError):
    """A sticky worker died or raised; the message carries the
    worker-side traceback (or the death diagnosis)."""


def _pool_worker(
    conn,
    worker_id: int,
    init_fn: Callable[..., Any],
    init_args: Tuple[Any, ...],
    seed_cache: Dict[Tuple[Any, ...], Any],
) -> None:
    """Sticky-worker main loop: build state once, serve calls forever.

    Protocol: the parent sends ``(fn, args)`` pairs and ``None`` as
    the shutdown sentinel; every call gets exactly one ``("ok",
    result)`` or ``("err", traceback_text)`` reply, in order.  The
    init phase replies ``("ready", None)`` so construction errors
    surface at pool creation, not at first use.
    """
    from ..bench import cache

    try:
        if seed_cache:
            cache.install(seed_cache)
        state = init_fn(worker_id, *init_args)
        conn.send(("ready", None))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        fn, args = msg
        try:
            conn.send(("ok", fn(state, *args)))
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except Exception:
                return


class WorkerPool:
    """A fixed-width pool of sticky, stateful worker processes.

    Each worker runs ``state = init_fn(worker_id, *init_args)`` once
    at startup (plus a warm copy of the parent's measurement-memo
    cache) and then serves :meth:`submit` calls as ``fn(state,
    *args)`` in FIFO order.  ``init_fn`` and every submitted ``fn``
    must be module-level (picklable by reference); arguments and
    results must be picklable values.

    Replies are collected per worker with :meth:`recv`, in submission
    order — the caller owns the interleaving, which is what lets the
    job executor dispatch a wave of PEs and gather the results
    deterministically.  A worker that dies (or whose call raises)
    surfaces as :class:`WorkerPoolError` carrying the remote traceback.
    """

    def __init__(
        self,
        n_workers: int,
        init_fn: Callable[..., Any],
        init_args: Tuple[Any, ...] = (),
    ) -> None:
        from ..bench import cache

        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._conns = []
        self._procs = []
        self._closed = False
        seed_cache = cache.snapshot() if cache.memo_enabled() else {}
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        try:
            for wid in range(n_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(
                        child_conn,
                        wid,
                        init_fn,
                        init_args,
                        seed_cache,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            # Init errors surface here, not at first submit.
            for wid in range(n_workers):
                self._recv_raw(wid)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    def submit(self, worker_id: int, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(state, *args)`` on a worker; returns immediately.

        Collect the reply later with :meth:`recv` — replies come back
        in submission order per worker.
        """
        if self._closed:
            raise WorkerPoolError("pool is closed")
        try:
            self._conns[worker_id].send((fn, args))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerPoolError(
                f"worker {worker_id} died before accepting work: {exc}"
            ) from exc

    def recv(self, worker_id: int) -> Any:
        """Next reply from a worker (FIFO), unwrapping remote errors."""
        payload = self._recv_raw(worker_id)
        return payload

    def _recv_raw(self, worker_id: int) -> Any:
        try:
            tag, payload = self._conns[worker_id].recv()
        except (EOFError, OSError) as exc:
            # The pipe can report EOF before the child is reaped;
            # join first so exitcode is populated, not None.
            proc = self._procs[worker_id]
            proc.join(timeout=5.0)
            code = proc.exitcode
            raise WorkerPoolError(
                f"worker {worker_id} died unexpectedly "
                f"(exit code {code})"
            ) from exc
        if tag == "err":
            raise WorkerPoolError(
                f"worker {worker_id} raised:\n{payload}"
            )
        return payload

    def call(self, worker_id: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Synchronous convenience: submit then immediately recv."""
        self.submit(worker_id, fn, *args)
        return self.recv(worker_id)

    def close(self) -> None:
        """Shut every worker down; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
