"""Warm-start layer: perfmodel prior + persistent phase memory.

Stock adaptation always starts cold — no queues, minimum threads —
and climbs the Fig. 7 loop from scratch, so the first dozens of
periods rediscover an operating point that was predictable (the
calibrated perfmodel) or already known (the same workload phase
converged an hour ago).  This module seeds the coordinator instead:

- **prior** (``mode="model"``) — query
  :func:`repro.perfmodel.predict.predict_operating_point` for the
  predicted near-optimal (thread count, queue placement) and start
  there, keeping the R1–R5 exploration to correct model error in
  either direction (the warm entry anchors the thread-count search so
  the guarded *downward* probe is armed, not just the upward climb);
- **posterior** (``mode="history"``) — a :class:`PhaseStore` keyed by
  blake2b fingerprints of (graph, machine, config, workload phase)
  records each converged operating point; a phase seen before snaps
  back to its last-known-good configuration in one period, with the
  STABLE-mode deviation monitor as the safety net against staleness;
- ``mode="auto"`` — posterior when the phase is known, prior
  otherwise; ``mode="off"`` — byte-identical stock behaviour (no
  session is even constructed).

The store persists through :mod:`repro.bench.cache`'s on-disk tier
(``REPRO_MEMO_DIR`` or an explicit directory), so phase memory
survives across processes and sessions; without a directory it is
process-local, which still covers mid-run phase recurrence under
time-varying open-loop load (diurnal, ON/OFF, flash crowds).

Everything here is substrate-agnostic: the same
:class:`WarmStartSpec` goes to ``set_warm_start`` on the DES runner,
the perfmodel :class:`~repro.runtime.executor.AdaptationExecutor` and
the multi-PE job runner (it is a plain picklable dataclass, so the job
layer can ship it to pool workers), and each builds its own
:class:`WarmStartSession` bound to its graph, machine and phase clock.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..bench import cache
from ..obs.hub import Obs, ensure_hub

__all__ = [
    "VALID_MODES",
    "PhaseRecord",
    "PhaseStore",
    "WarmStartHint",
    "WarmStartSession",
    "WarmStartSpec",
    "make_runner_session",
    "model_hint",
    "quantize_rate",
    "resolve_warm_start",
]

# CLI / scenario / env vocabulary for run.warm_start and --warm-start.
VALID_MODES = ("off", "model", "history", "auto")


def resolve_warm_start(
    explicit: Optional[str], scenario_value: Optional[str] = None
) -> str:
    """Warm-start mode with the ``--jobs``-style precedence chain:
    explicit argument > scenario ``run.warm_start`` > the
    ``REPRO_WARM_START`` environment variable > ``"off"``."""
    if explicit is not None:
        value = explicit
    elif scenario_value is not None:
        value = scenario_value
    else:
        value = os.environ.get("REPRO_WARM_START", "").strip().lower()
        value = value or "off"
    if value not in VALID_MODES:
        raise ValueError(
            f"invalid warm-start mode {value!r}; "
            f"expected one of {', '.join(VALID_MODES)}"
        )
    return value


@dataclass(frozen=True)
class WarmStartSpec:
    """Picklable warm-start request, threaded through the backends.

    ``store_dir`` overrides the phase store's directory (None defers
    to ``REPRO_MEMO_DIR``; no directory at all keeps the store
    process-local).  ``phase_rate`` maps a period's simulated start
    time to the offered arrival rate (e.g.
    ``ArrivalProcess.rate_at``) so time-varying open-loop phases get
    distinct store keys; it must be picklable for the job layer's
    pool workers (a bound method of a frozen dataclass is).
    """

    mode: str = "off"
    store_dir: Optional[str] = None
    phase_rate: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.mode not in VALID_MODES:
            raise ValueError(
                f"invalid warm-start mode {self.mode!r}; "
                f"expected one of {', '.join(VALID_MODES)}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"


@dataclass(frozen=True)
class WarmStartHint:
    """One seeding suggestion handed to a coordinator at (re)start.

    ``snap=True`` means the hint is trusted enough to enter STABLE
    directly (posterior hits: the configuration already converged for
    this exact phase); otherwise the coordinator starts its search at
    the hinted point (prior hits: model error must stay correctable).
    """

    threads: int
    queued: Tuple[int, ...]
    source: str  # "model" | "history"
    expected_throughput: Optional[float] = None
    thread_range: Optional[Tuple[int, int]] = None
    snap: bool = False


@dataclass(frozen=True)
class PhaseRecord:
    """A converged operating point remembered for one phase key."""

    threads: int
    queued: Tuple[int, ...]
    throughput: float
    thread_range: Tuple[int, int]
    # Multi-PE jobs: converged replica count per PE name.
    replicas: Tuple[Tuple[str, int], ...] = ()


class PhaseStore:
    """Phase-keyed memory of converged operating points.

    A thin dict with a write-through disk tier: keys are blake2b
    fingerprints (strings), values :class:`PhaseRecord`.  Disk
    entries ride :func:`repro.bench.cache.disk_lookup` /
    :func:`~repro.bench.cache.disk_store`, so corruption and format
    drift degrade to misses and concurrent writers are safe.
    """

    KIND = "warm-phase"

    def __init__(self, directory: Optional[str] = None) -> None:
        self._directory = directory
        self._mem: Dict[str, PhaseRecord] = {}

    def _dir(self) -> Optional[str]:
        return cache.disk_dir(self._directory)

    def lookup(self, key: str) -> Optional[PhaseRecord]:
        record = self._mem.get(key)
        if record is not None:
            return record
        hit, value = cache.disk_lookup(
            self.KIND, key, directory=self._dir()
        )
        if hit and isinstance(value, PhaseRecord):
            self._mem[key] = value
            return value
        return None

    def record(self, key: str, record: PhaseRecord) -> None:
        self._mem[key] = record
        cache.disk_store(self.KIND, key, record, directory=self._dir())

    def __len__(self) -> int:
        return len(self._mem)


def model_hint(graph, machine, config) -> Optional[WarmStartHint]:
    """The prior: predict a near-optimal point from the perfmodel."""
    from ..perfmodel.predict import predict_operating_point

    elasticity = config.elasticity
    point = predict_operating_point(
        graph,
        machine,
        min_threads=elasticity.min_threads,
        max_threads=config.effective_max_threads,
        sens=elasticity.sens,
    )
    return WarmStartHint(
        threads=point.threads,
        queued=point.queued,
        source="model",
        expected_throughput=point.throughput,
    )


@dataclass
class WarmStartSession:
    """One runner's live warm-start policy.

    ``hint()`` is consulted by the coordinator at INIT and at every
    workload-change restart; ``record()`` is called when a search
    settles.  The phase key and the prior are callables because both
    depend on runner state that moves during a run (the current graph
    under workload events, the period clock under open-loop load).
    """

    mode: str
    phase_key: Callable[[], str]
    store: Optional[PhaseStore] = None
    prior: Optional[Callable[[], Optional[WarmStartHint]]] = None
    obs: Optional[Obs] = None
    _prior_cache: Dict[Any, Optional[WarmStartHint]] = field(
        default_factory=dict
    )

    def hint(self) -> Optional[WarmStartHint]:
        if self.mode == "off":
            return None
        hub = ensure_hub(self.obs)
        if self.mode in ("history", "auto") and self.store is not None:
            record = self.store.lookup(self.phase_key())
            if record is not None:
                hub.registry.counter(
                    "warmstart.phase_hits",
                    "coordinator (re)starts seeded from the phase store",
                ).inc()
                return WarmStartHint(
                    threads=record.threads,
                    queued=record.queued,
                    source="history",
                    expected_throughput=record.throughput,
                    thread_range=record.thread_range,
                    snap=True,
                )
        if self.mode in ("model", "auto") and self.prior is not None:
            hint = self._model_hint()
            if hint is not None:
                hub.registry.counter(
                    "warmstart.model_hints",
                    "coordinator (re)starts seeded from the perfmodel "
                    "prior",
                ).inc()
            return hint
        return None

    def _model_hint(self) -> Optional[WarmStartHint]:
        # Keyed by the phase key so a workload change (new graph, new
        # envelope phase) re-queries the model instead of replaying a
        # stale prediction.
        key = self.phase_key()
        if key not in self._prior_cache:
            self._prior_cache[key] = self.prior()
        return self._prior_cache[key]

    def record(
        self,
        threads: int,
        queued: Tuple[int, ...],
        throughput: float,
        thread_range: Optional[Tuple[int, int]] = None,
        replicas: Tuple[Tuple[str, int], ...] = (),
    ) -> None:
        """Remember a converged operating point for the current phase."""
        if self.mode == "off" or self.store is None:
            return
        ensure_hub(self.obs).registry.counter(
            "warmstart.records",
            "converged operating points written to the phase store",
        ).inc()
        self.store.record(
            self.phase_key(),
            PhaseRecord(
                threads=threads,
                queued=tuple(queued),
                throughput=throughput,
                thread_range=(
                    thread_range
                    if thread_range is not None
                    else (threads, threads)
                ),
                replicas=replicas,
            ),
        )


def quantize_rate(rate: float) -> float:
    """2 significant digits: one bucket per envelope step, so a phase
    revisited at a near-identical offered rate shares its key."""
    return float(f"{rate:.2g}")


def make_runner_session(
    spec: Optional[WarmStartSpec],
    graph_fn: Callable[[], Any],
    machine: Any,
    config: Any,
    phase_token: Callable[[], Any],
    obs: Optional[Obs] = None,
    store: Optional[PhaseStore] = None,
) -> Optional[WarmStartSession]:
    """Build the session a runner installs on its coordinator.

    ``graph_fn`` is consulted lazily (workload events swap graphs
    mid-run); ``phase_token`` supplies the workload-phase component of
    the store key (e.g. the quantized envelope rate at the current
    period).  Returns None for a disabled spec, which keeps every
    stock code path untouched.
    """
    if spec is None or not spec.enabled:
        return None

    def phase_key() -> str:
        return cache.fingerprint(
            "warm-phase",
            cache.graph_fingerprint(graph_fn()),
            cache.machine_fingerprint(machine),
            cache.config_fingerprint(config),
            phase_token(),
        )

    session_store = store
    if session_store is None and spec.mode in ("history", "auto"):
        session_store = PhaseStore(spec.store_dir)
    prior = None
    if spec.mode in ("model", "auto"):
        prior = lambda: model_hint(graph_fn(), machine, config)  # noqa: E731
    return WarmStartSession(
        mode=spec.mode,
        phase_key=phase_key,
        store=session_store,
        prior=prior,
        obs=obs,
    )
