"""Multi-level elastic coordination (§3.2-§3.3, Fig. 7).

The coordinator owns both elastic components and implements the paper's
iterative refinement: "fixing one elastic component at a time while
making adjustment for the other until no performance improvement can be
gained".  Design decisions encoded here, as in the paper:

- **Primary adjustment is the thread count** — a thread count change
  *triggers* a threading model exploration, not the other way round
  (avoids oversubscription overshoot; thread changes have higher
  variance so they live in the outer loop).
- **Adjustment direction starts from minimum parallelism** — no queues,
  minimum threads; parallelism is introduced upward from a fully
  dynamic start (more reliable signal, no initial over-subscription).
  Warm starts (:mod:`repro.core.warmstart`) are the sanctioned
  exception: a seeded entry lands on a *non-minimal* state, so both
  the warm entry and ``_restart`` anchor the thread-count search at
  the current level — arming its guarded downward probe — and
  suppress the trend classifier for the first period at the new
  state (the jump itself is a configuration change, not a workload
  trend).
- **Learning from history** — each threading model adjustment records
  the thread range it remained optimal for; a thread change landing
  inside the recorded range skips the secondary adjustment.
- **Satisfaction factor** — if the thread change alone improved
  throughput proportionately (measured sf >= THRE), the secondary
  adjustment is skipped outright.

The coordinator is substrate-agnostic: it sees throughput observations
(one per adaptation period) and emits :class:`CoordinatorAction`
configuration changes; profiling groups are obtained through a callback
so the same logic drives the analytical model, the discrete-event
simulator, or (in principle) a real runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs.hub import Obs, ensure_hub
from ..runtime.config import ElasticityConfig
from ..runtime.queues import QueuePlacement
from .binning import ProfilingGroup
from .history import AdjustmentHistory, Direction
from .metrics import Trend, classify_trend
from .satisfaction import (
    SatisfactionSample,
    measured_satisfaction,
    should_skip_secondary,
)
from .thread_count import ThreadCountElasticity
from .threading_model import (
    AdjustDecision,
    Step,
    ThreadingModelElasticity,
)


def _join_detail(existing: str, extra: str) -> str:
    """Append a decision-detail fragment, space-separated."""
    return f"{existing} {extra}" if existing else extra


class Mode(enum.Enum):
    """Which elastic component is active (Fig. 7's two booleans)."""

    INIT = "init"
    THREADING_MODEL = "threading_model"
    THREAD_COUNT = "thread_count"
    STABLE = "stable"


@dataclass(frozen=True)
class CoordinatorAction:
    """Configuration changes to apply before the next period."""

    set_placement: Optional[QueuePlacement] = None
    set_threads: Optional[int] = None
    note: str = ""


@dataclass
class _PendingThreadChange:
    prev_threads: int
    new_threads: int
    prev_throughput: float


class MultiLevelCoordinator:
    """Fig. 7's ``adapt()`` loop as an event-driven controller."""

    def __init__(
        self,
        config: ElasticityConfig,
        max_threads: int,
        profile_provider: Callable[[], Sequence[ProfilingGroup]],
        seed: int = 0,
        workload_change_factor: float = 3.0,
        workload_change_persistence: int = 2,
        obs: Optional[Obs] = None,
    ) -> None:
        self.config = config
        self.profile_provider = profile_provider
        self._obs = ensure_hub(obs)
        self.threading_model = ThreadingModelElasticity(
            seed=seed, sens=config.sens, obs=self._obs
        )
        self.thread_count = ThreadCountElasticity(
            min_threads=config.min_threads,
            max_threads=(
                config.max_threads
                if config.max_threads is not None
                else max_threads
            ),
            initial_threads=config.initial_threads,
            sens=config.sens,
            obs=self._obs,
        )
        self.history = AdjustmentHistory()
        self.mode = Mode.INIT
        self._pending: Optional[_PendingThreadChange] = None
        self._settle_probes_done = 0
        self._settle_stay_streak = 0
        self._in_settle_probe = False
        self._last_settle_direction: Optional[Direction] = None
        self._stable_baseline: Optional[float] = None
        self._deviation_streak = 0
        self._workload_change_factor = workload_change_factor
        self._workload_change_persistence = workload_change_persistence
        self._mode_log: List[Mode] = []
        # Per-period decision attribution, reset at every step().
        self._rule: Optional[str] = None
        self._detail: str = ""
        self._history_hit = False
        self._satisfaction: Optional[float] = None
        self._last_observed: Optional[float] = None
        # Optional warm-start policy (repro.core.warmstart); None keeps
        # every stock code path byte-identical.
        self._warm = None
        # One-shot trend suppression: the first period after a restart
        # or warm jump compares against a throughput measured under a
        # different configuration, so its trend is reported FLAT
        # instead of misclassifying the jump as a workload trend.
        self._suppress_next_trend = False

    # ------------------------------------------------------------------
    @property
    def current_threads(self) -> int:
        return self.thread_count.current

    @property
    def current_placement(self) -> QueuePlacement:
        return self.threading_model.placement()

    @property
    def is_stable(self) -> bool:
        return self.mode is Mode.STABLE

    def mode_history(self) -> List[Mode]:
        return list(self._mode_log)

    def set_warm_start(self, session) -> None:
        """Install (or clear, with None) the warm-start session.

        The session is consulted at INIT and at every workload-change
        restart; converged operating points are reported back through
        ``session.record``.  See :mod:`repro.core.warmstart`.
        """
        self._warm = session

    # ------------------------------------------------------------------
    def step(self, observed: float) -> CoordinatorAction:
        """Process one adaptation period's throughput observation.

        Exactly one :class:`~repro.obs.decisions.Decision` is emitted
        per call: the branch methods attribute the action to the R1-R5
        search rule or Fig. 7 branch that produced it, and the record
        is written here so no path can skip (or double-count) it.
        """
        self._mode_log.append(self.mode)
        mode_before = self.mode
        self._rule = None
        self._detail = ""
        self._history_hit = False
        self._satisfaction = None
        suppress_trend = self._suppress_next_trend
        self._suppress_next_trend = False
        if self.mode is Mode.INIT:
            action = self._step_init(observed)
        elif self.mode is Mode.THREADING_MODEL:
            action = self._step_threading_model(observed)
        elif self.mode is Mode.THREAD_COUNT:
            action = self._step_thread_count(observed)
        else:
            action = self._step_stable(observed)
        if self._last_observed is None or suppress_trend:
            trend = Trend.FLAT
        else:
            trend = classify_trend(
                self._last_observed, observed, self.config.sens
            )
        self._last_observed = observed
        self._obs.decision(
            component="coordinator",
            mode=mode_before.value,
            rule=self._rule or "F7-HOLD",
            detail=self._detail,
            observed=observed,
            trend=trend.value,
            history_hit=self._history_hit,
            satisfaction=self._satisfaction,
            set_threads=action.set_threads,
            set_n_queues=(
                action.set_placement.n_queues
                if action.set_placement is not None
                else None
            ),
            note=action.note,
        )
        return action

    # ------------------------------------------------------------------
    def _step_init(self, observed: float) -> CoordinatorAction:
        """First observation: profile, then open the initial UP phase
        — or jump straight to a warm-start hint when one is offered."""
        groups = list(self.profile_provider())
        hint = self._warm.hint() if self._warm is not None else None
        if hint is not None:
            return self._apply_warm_hint(
                groups, hint, note="warm start"
            )
        self._rule = "F7-INIT"
        self.threading_model.set_groups(
            groups, self.threading_model.placement()
        )
        step = self.threading_model.begin_phase(Direction.UP, observed)
        return self._emit_tm_step(step, observed, note="initial exploration")

    def _apply_warm_hint(
        self, groups, hint, note: str
    ) -> CoordinatorAction:
        """Seed the controllers from a warm-start hint.

        Model hints (``snap=False``) enter THREAD_COUNT with the
        search anchored at the hinted level, so R1–R5 exploration —
        including the guarded downward probe — corrects model error.
        Phase-store hints (``snap=True``) enter STABLE directly: the
        configuration already converged for this exact phase, and the
        stable-mode deviation monitor catches staleness.
        """
        valid = {m for g in groups for m in g.members}
        queued = [i for i in hint.queued if i in valid]
        self.threading_model.set_groups(groups, QueuePlacement.of(queued))
        placement = self.threading_model.placement()
        level = max(
            self.thread_count.min_threads,
            min(self.thread_count.max_threads, hint.threads),
        )
        self.history.clear()
        if hint.thread_range is not None:
            lo, hi = hint.thread_range
            self.history.seed_entry(
                placement, min(lo, level), max(hi, level)
            )
        else:
            self.history.create_entry(placement, level)
        self.thread_count.warm_start(level, settled=hint.snap)
        self._pending = None
        self._settle_probes_done = 0
        self._settle_stay_streak = 0
        self._last_settle_direction = None
        self._deviation_streak = 0
        self._suppress_next_trend = True
        self._detail = _join_detail(self._detail, f"warm-{hint.source}")
        if hint.snap:
            self.mode = Mode.STABLE
            # The recorded throughput is the baseline the deviation
            # monitor holds the snap to: a stale snap (the phase
            # changed under the same key) under-delivers immediately
            # and restarts, instead of silently re-baselining at the
            # degraded level.  Hints without an expectation fall back
            # to first-period baselining.
            self._stable_baseline = hint.expected_throughput
            self._rule = "F7-WARM-SNAP"
        else:
            self.mode = Mode.THREAD_COUNT
            self._stable_baseline = None
            self._rule = "F7-WARM-START"
        return CoordinatorAction(
            set_placement=placement, set_threads=level, note=note
        )

    # ------------------------------------------------------------------
    def _step_threading_model(self, observed: float) -> CoordinatorAction:
        step = self.threading_model.step(observed)
        self._rule = self.threading_model.last_rule
        return self._emit_tm_step(step, observed)

    def _emit_tm_step(
        self, step: Step, observed: float, note: str = ""
    ) -> CoordinatorAction:
        if not step.done:
            self.mode = Mode.THREADING_MODEL
            if self._rule is None:
                self._rule = self.threading_model.last_rule
            return CoordinatorAction(
                set_placement=step.placement,
                note=note or "threading model trial",
            )
        if self._rule is None or self._rule in ("F7-TM-BEGIN",):
            self._rule = "F7-TM-SETTLED"
        self._detail = _join_detail(
            self._detail, f"tm-{step.decision.value}"
        )
        # Phase finished: bookkeeping per Fig. 7 lines 18-22.
        level = self.thread_count.current
        if self._in_settle_probe:
            self._in_settle_probe = False
            if step.decision is AdjustDecision.STAY:
                self._settle_stay_streak += 1
            else:
                self._settle_stay_streak = 0
        if step.decision is AdjustDecision.CHANGE:
            self.history.create_entry(step.placement, level)
            # The placement changed, so the previously optimal thread
            # count is stale: resume the primary adjustment ("we switch
            # back to the thread count elasticity phase").  Without
            # this, a thread controller that settled under the old
            # placement would never exploit the parallelism the new
            # queues expose.
            self.thread_count.reset()
            self._settle_probes_done = 0
            self._last_settle_direction = None
        elif self.history.last is not None:
            self.history.update_entry(level)
        else:
            # A STAY on the very first exploration: the empty placement
            # is the record.
            self.history.create_entry(step.placement, level)
        self.mode = Mode.THREAD_COUNT
        self.thread_count.rebase(observed)
        return CoordinatorAction(
            set_placement=step.placement,
            note=f"threading model settled ({step.decision.value})",
        )

    # ------------------------------------------------------------------
    def _step_thread_count(self, observed: float) -> CoordinatorAction:
        # 1. Evaluate the previous thread change (satisfaction factor +
        #    history), possibly triggering the secondary adjustment.
        pending, self._pending = self._pending, None
        if pending is not None:
            direction = self._secondary_direction(pending, observed)
            if direction is not Direction.NONE:
                self._rule = f"F7-SECONDARY-{direction.value.upper()}"
                step = self.threading_model.begin_phase(direction, observed)
                return self._emit_tm_step(
                    step,
                    observed,
                    note=f"secondary adjustment ({direction.value})",
                )

        # 2. Continue the primary (thread count) adjustment.
        prev_level = self.thread_count.current
        new_level = self.thread_count.propose(observed)
        if new_level is not None:
            self._rule = "F7-THREAD-COUNT"
            self._detail = _join_detail(
                self._detail, self.thread_count.last_rule
            )
            self._pending = _PendingThreadChange(
                prev_threads=prev_level,
                new_threads=new_level,
                prev_throughput=observed,
            )
            self._settle_probes_done = 0
            self._settle_stay_streak = 0
            self._last_settle_direction = None
            return CoordinatorAction(
                set_threads=new_level, note="thread count adjustment"
            )

        if self.thread_count.settled:
            # The iterative refinement only terminates when *neither*
            # component can improve.  Before declaring stability, give
            # the threading model final passes at the settled thread
            # count: first in the direction the history record
            # suggests, then once in the opposite direction (a STAY in
            # one direction does not rule out gains in the other).
            if (
                self._settle_stay_streak < 2
                and self._settle_probes_done < 6
            ):
                level = self.thread_count.current
                if self._last_settle_direction is None:
                    if self.config.use_history:
                        direction = self.history.direction_for(level)
                        if direction is Direction.NONE:
                            # The record already validates this level;
                            # still explore upward once before
                            # stabilizing.
                            direction = Direction.UP
                    else:
                        direction = Direction.UP
                else:
                    # Alternate directions: a STAY in one direction
                    # does not rule out gains in the other, and each
                    # probe re-randomizes group subsets.
                    direction = (
                        Direction.DOWN
                        if self._last_settle_direction is Direction.UP
                        else Direction.UP
                    )
                self._settle_probes_done += 1
                self._last_settle_direction = direction
                self._in_settle_probe = True
                self._rule = "F7-SETTLE-PROBE"
                self._detail = _join_detail(
                    self._detail, f"probe-{direction.value}"
                )
                step = self.threading_model.begin_phase(
                    direction, observed
                )
                return self._emit_tm_step(
                    step,
                    observed,
                    note=f"settle probe ({direction.value})",
                )
            self.mode = Mode.STABLE
            self._stable_baseline = observed
            self._deviation_streak = 0
            self._rule = "F7-SETTLED"
            self._record_converged(observed)
            return CoordinatorAction(note="settled")
        self._rule = "F7-HOLD"
        return CoordinatorAction(note="thread count holding")

    def _secondary_direction(
        self, pending: _PendingThreadChange, observed: float
    ) -> Direction:
        """Decide whether/which way to run the secondary adjustment."""
        if self.config.use_satisfaction_factor:
            sample = SatisfactionSample(
                prev_throughput=pending.prev_throughput,
                curr_throughput=observed,
                prev_threads=pending.prev_threads,
                new_threads=pending.new_threads,
            )
            self._satisfaction = measured_satisfaction(sample)
            if should_skip_secondary(
                sample, self.config.satisfaction_threshold
            ):
                self._detail = _join_detail(self._detail, "sf-skip")
                return Direction.NONE
        if self.config.use_history:
            direction = self.history.direction_for(pending.new_threads)
            if direction is Direction.NONE:
                self._history_hit = True
                self._detail = _join_detail(self._detail, "history-skip")
            return direction
        # No history optimization: always explore, in the direction the
        # thread count moved (Fig. 6(a) behaviour: every thread change
        # triggers threading model elasticity).
        if pending.new_threads >= pending.prev_threads:
            return Direction.UP
        return Direction.DOWN

    # ------------------------------------------------------------------
    def _step_stable(self, observed: float) -> CoordinatorAction:
        """Monitor for workload change (Fig. 13)."""
        self._rule = "F7-STABLE"
        baseline = self._stable_baseline
        if baseline is None or baseline == 0.0:
            self._stable_baseline = observed
            return CoordinatorAction(note="stable")
        threshold = self._workload_change_factor * self.config.sens
        deviation = abs(observed / baseline - 1.0)
        if deviation > threshold:
            self._deviation_streak += 1
            if self._deviation_streak >= self._workload_change_persistence:
                return self._restart(observed)
        else:
            self._deviation_streak = 0
            # Slow EWMA drift of the baseline.
            self._stable_baseline = 0.9 * baseline + 0.1 * observed
        return CoordinatorAction(note="stable")

    def _record_converged(self, observed: float) -> None:
        """Report a settled operating point to the warm-start session."""
        if self._warm is None:
            return
        record = self.history.last
        thread_range = (
            (record.min_threads, record.max_threads)
            if record is not None
            else None
        )
        self._warm.record(
            threads=self.thread_count.current,
            queued=tuple(sorted(self.current_placement.queued)),
            throughput=observed,
            thread_range=thread_range,
        )

    def _restart(self, observed: float) -> CoordinatorAction:
        """Workload change detected: re-profile and re-explore.

        With a warm-start session installed, the new phase may be one
        the phase store has seen (or the model can predict) — then the
        restart jumps straight to the hinted operating point instead
        of re-exploring from the current state.
        """
        self._rule = "F7-WORKLOAD-CHANGE"
        self._deviation_streak = 0
        self._stable_baseline = None
        self._settle_probes_done = 0
        self._settle_stay_streak = 0
        self._last_settle_direction = None
        groups = list(self.profile_provider())
        hint = self._warm.hint() if self._warm is not None else None
        if hint is not None:
            return self._apply_warm_hint(
                groups, hint, note="workload change (warm)"
            )
        self.threading_model.set_groups(
            groups, self.threading_model.placement()
        )
        self.history.clear()
        self.thread_count.reset()
        # The reset re-anchors the search at the current level; the
        # first period after the restart measures under the same
        # configuration but a changed workload, so its trend would
        # misread the workload shift as a search result.
        self._suppress_next_trend = True
        self.mode = Mode.THREAD_COUNT
        step = self.threading_model.begin_phase(Direction.UP, observed)
        return self._emit_tm_step(step, observed, note="workload change")
