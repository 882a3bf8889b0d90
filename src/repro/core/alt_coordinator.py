"""The rejected design: threading model as the PRIMARY adjustment.

§3.2 of the paper describes two candidate orderings for the multi-level
coordination and adopts thread count as the primary.  This module
implements the alternative — "Change in threading model: Threading model
changes trigger finding the locally optimal number of threads for the
current threading model configuration" — so the design choice can be
measured instead of argued (see ``bench.ablations.ablate_primary_order``).

The paper's two objections, which the ablation quantifies:

1. finding the locally optimal thread count requires climbing *to the
   point of performance degradation*; doing that inside the inner loop
   oversubscribes the system much more frequently during adaptation;
2. thread count changes have higher performance variance than threading
   model changes, so an outer threading-model search fed by inner
   thread-count results receives a noisier objective.

Structure: the outer loop is a threading-model phase; every trial
placement it emits is evaluated by running a full inner thread-count
search to settlement, and the settled throughput is what the outer
search sees as that placement's measurement.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence

from ..obs.hub import Obs, ensure_hub
from ..runtime.config import ElasticityConfig
from .binning import ProfilingGroup
from .coordinator import CoordinatorAction, _join_detail as _join
from .history import Direction
from .metrics import Trend, classify_trend
from .thread_count import ThreadCountElasticity
from .threading_model import (
    AdjustDecision,
    Step,
    ThreadingModelElasticity,
)


class AltMode(enum.Enum):
    INIT = "init"
    INNER_THREADS = "inner_threads"
    STABLE = "stable"


class ThreadingPrimaryCoordinator:
    """Multi-level coordination with the threading model as primary.

    Exposes the same ``step(observed) -> CoordinatorAction`` protocol as
    :class:`~repro.core.coordinator.MultiLevelCoordinator`, so the same
    executor drives it.
    """

    def __init__(
        self,
        config: ElasticityConfig,
        max_threads: int,
        profile_provider: Callable[[], Sequence[ProfilingGroup]],
        seed: int = 0,
        obs: Optional[Obs] = None,
    ) -> None:
        self.config = config
        self.max_threads = max_threads
        self.profile_provider = profile_provider
        self._obs = ensure_hub(obs)
        self.threading_model = ThreadingModelElasticity(
            seed=seed, sens=config.sens, obs=self._obs
        )
        self.mode = AltMode.INIT
        self._tc: Optional[ThreadCountElasticity] = None
        self._threads = config.initial_threads
        self._outer_rounds = 0
        self._max_outer_rounds = 8
        self._mode_log: List[AltMode] = []
        # Per-step decision attribution, folded into the single
        # Decision record emitted at the end of each step().
        self._rule = ""
        self._detail = ""
        self._last_observed: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def current_threads(self) -> int:
        return self._threads

    @property
    def is_stable(self) -> bool:
        return self.mode is AltMode.STABLE

    def mode_history(self) -> List[AltMode]:
        return list(self._mode_log)

    # ------------------------------------------------------------------
    def _new_inner_search(self) -> ThreadCountElasticity:
        """Fresh inner thread-count search for the current placement.

        Restarted from the minimum every time, per the design under
        test: the inner loop must re-establish the locally optimal
        count for each threading-model trial.
        """
        return ThreadCountElasticity(
            min_threads=self.config.min_threads,
            max_threads=self.max_threads,
            initial_threads=self.config.min_threads,
            sens=self.config.sens,
            obs=self._obs,
        )

    def step(self, observed: float) -> CoordinatorAction:
        self._mode_log.append(self.mode)
        mode_before = self.mode
        self._rule = ""
        self._detail = ""
        action = self._step_impl(observed)
        if self._last_observed is None:
            trend = Trend.FLAT
        else:
            trend = classify_trend(
                self._last_observed, observed, self.config.sens
            )
        self._last_observed = observed
        self._obs.decision(
            component="alt_coordinator",
            mode=mode_before.value,
            rule=self._rule or "ALT-HOLD",
            detail=self._detail,
            observed=observed,
            trend=trend.value,
            set_threads=action.set_threads,
            set_n_queues=(
                action.set_placement.n_queues
                if action.set_placement is not None
                else None
            ),
            note=action.note,
        )
        return action

    def _step_impl(self, observed: float) -> CoordinatorAction:
        if self.mode is AltMode.INIT:
            groups = list(self.profile_provider())
            self.threading_model.set_groups(
                groups, self.threading_model.placement()
            )
            step = self.threading_model.begin_phase(
                Direction.UP, observed
            )
            self._rule = "ALT-INIT"
            return self._emit(step, observed)

        if self.mode is AltMode.INNER_THREADS:
            assert self._tc is not None
            proposal = self._tc.propose(observed)
            if proposal is not None:
                self._threads = proposal
                self._rule = "ALT-INNER-THREADS"
                self._detail = self._tc.last_rule
                return CoordinatorAction(
                    set_threads=proposal, note="inner thread search"
                )
            if self._tc.settled:
                # Inner search done: its settled throughput is the
                # outer measurement for the current trial placement.
                settled_throughput = (
                    self._tc.measurement(self._tc.current) or observed
                )
                self._detail = self._tc.last_rule
                self._tc = None
                if not self.threading_model.phase_active:
                    self.mode = AltMode.STABLE
                    self._rule = "ALT-SETTLED"
                    return CoordinatorAction(note="settled")
                step = self.threading_model.step(settled_throughput)
                return self._emit(step, settled_throughput)
            self._rule = "ALT-HOLD"
            self._detail = self._tc.last_rule
            return CoordinatorAction(note="inner holding")

        self._rule = "ALT-STABLE"
        return CoordinatorAction(note="stable")

    def _emit(self, step: Step, observed: float) -> CoordinatorAction:
        if step.done:
            self._outer_rounds += 1
            if (
                step.decision is AdjustDecision.CHANGE
                and self._outer_rounds < self._max_outer_rounds
            ):
                # Placement changed: open another outer phase.
                next_step = self.threading_model.begin_phase(
                    Direction.UP, observed
                )
                if not next_step.done:
                    return self._start_inner(next_step)
            self.mode = AltMode.STABLE
            if not self._rule or self._rule == "ALT-INIT":
                self._rule = "ALT-SETTLED"
            self._detail = _join(
                self._detail, f"tm-{step.decision.value}"
            )
            return CoordinatorAction(
                set_placement=step.placement,
                note=f"outer settled ({step.decision.value})",
            )
        return self._start_inner(step)

    def _start_inner(self, step: Step) -> CoordinatorAction:
        """Apply the outer trial and launch the inner thread search."""
        self.mode = AltMode.INNER_THREADS
        self._tc = self._new_inner_search()
        self._threads = self._tc.current
        if self._rule != "ALT-INIT":
            self._rule = "ALT-OUTER-TRIAL"
        tm_rule = self.threading_model.last_rule
        if tm_rule:
            self._detail = _join(self._detail, tm_rule)
        return CoordinatorAction(
            set_placement=step.placement,
            set_threads=self._threads,
            note="outer trial + inner restart",
        )
