"""Threading model elasticity (§3.1): choose dynamic vs manual per operator.

Given ``N`` operators the configuration space has ``2^N`` members; the
paper reduces the search to linear time with two observations:

- **(O1)** expensive operators benefit from the dynamic model first, so
  exploration proceeds group-by-group in descending cost order;
- **(O2)** operators with similar cost react similarly, so adjustment
  granularity is the *profiling group* (logarithmic cost bins), not the
  individual operator.

Within a group the controller runs the trend-guided adaptive search of
Fig. 3/Fig. 4 (rules R1-R5), realized as a two-sided bisection
hill-climb (see :class:`_GroupSearch`).  Which members are dynamic at a
given count is "an arbitrary set of N from within the group": each
probe re-draws the members it adds (or drops) at random *relative to
the current anchor subset*.  The anchoring keeps comparisons stable;
the re-randomization lets the search escape plateaus where only one
specific operator (e.g. the one splitting the bottleneck region)
unlocks further gains — the paper observes that exactly this randomness
helps settling time at negligible disturbance (§3.1.1).

A *phase* is one activation by the coordinator, with a direction:
``Direction.UP`` adds queues starting from the heaviest non-saturated
group, ``Direction.DOWN`` removes queues starting from the lightest
queued group ("the same algorithm is used in the reverse order").  A
phase visits every eligible group in that order, settling each on its
best SENS-significant count; the phase's final configuration is the
best SENS-significant placement observed anywhere in the phase (a trial
that did not significantly win is reverted — Fig. 5(f)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.hub import Obs, ensure_hub
from ..runtime.queues import QueuePlacement
from .binning import ProfilingGroup
from .history import Direction
from .metrics import significantly_better


class AdjustDecision(enum.Enum):
    """Fig. 4's AdjustDecision enum."""

    CONTINUE = "continue"
    STAY = "stay"
    CHANGE = "change"


@dataclass(frozen=True)
class Step:
    """Outcome of one controller step.

    ``decision is None`` means CONTINUE: apply ``placement`` for the
    next adaptation period and feed the resulting observation back via
    :meth:`ThreadingModelElasticity.step`.  A non-None decision ends
    the phase; ``placement`` then carries the final configuration.
    """

    placement: QueuePlacement
    decision: Optional[AdjustDecision] = None

    @property
    def done(self) -> bool:
        return self.decision is not None


@dataclass
class _GroupSearch:
    """Two-sided bisection hill-climb state within one profiling group.

    ``anchor`` is the best-known count (measured).  Two unexplored
    intervals surround it: toward ``fwd`` (the phase's target — the
    whole group for UP, zero for DOWN) and toward ``back`` (left behind
    when the anchor last advanced; a successful jump from *a* to *p*
    proves ``f(p) > f(a)`` but the optimum may still lie inside
    ``(a, p)``).  Each probe takes the midpoint of one interval,
    rounded toward its boundary:

    - probe significantly better than the anchor -> move the anchor
      there; the skipped-over interval becomes the new opposite bound
      (rules R1/R2 forward, R3/R4 backward);
    - otherwise -> pull that boundary in to the probe;
    - both intervals exhausted -> stop (R5); if the anchor reached the
      group target with an improving trend, the whole group profits and
      exploration continues with the next group (Fig. 4 lines 4-6).

    ``measurements`` maps each probed count to the throughput observed
    AND the exact member subset that produced it, so settling can
    restore the winning subset (subsets are re-drawn per probe).
    """

    group_index: int
    baseline_count: int
    anchor: int
    fwd: int
    back: int
    mode: str = "fwd"
    measurements: Dict[int, Tuple[float, Tuple[int, ...]]] = field(
        default_factory=dict
    )

    @property
    def anchor_throughput(self) -> float:
        return self.measurements[self.anchor][0]

    @staticmethod
    def _midpoint(anchor: int, boundary: int) -> int:
        """Midpoint rounded toward the boundary (guarantees progress)."""
        if boundary > anchor:
            return (anchor + boundary + 1) // 2
        return (anchor + boundary) // 2

    def next_probe(self) -> Optional[int]:
        """Pick the next unmeasured interior count, or None when done."""
        order = (
            ("fwd", "back") if self.mode == "fwd" else ("back", "fwd")
        )
        for mode in order:
            boundary = self.fwd if mode == "fwd" else self.back
            if boundary == self.anchor:
                continue
            probe = self._midpoint(self.anchor, boundary)
            if probe == self.anchor or probe in self.measurements:
                continue
            self.mode = mode
            return probe
        return None


class ThreadingModelElasticity:
    """Elastic controller for per-operator threading model choice."""

    def __init__(
        self,
        seed: int = 0,
        sens: float = 0.05,
        obs: Optional[Obs] = None,
    ) -> None:
        self.sens = sens
        #: Search rule applied by the most recent begin_phase()/step():
        #: one of R1-R5 (Fig. 3/4) or "F7-TM-BEGIN" for a phase's first
        #: probe.  The coordinator copies this into its Decision record.
        self.last_rule: Optional[str] = None
        hub = ensure_hub(obs)
        self._m_phases = hub.registry.counter(
            "tm.phases", "threading-model exploration phases begun"
        )
        self._m_probes = hub.registry.counter(
            "tm.probes", "trial placements issued by the group search"
        )
        self._m_anchor_moves = hub.registry.counter(
            "tm.anchor_moves", "probes that displaced a group anchor"
        )
        self._m_group_settles = hub.registry.counter(
            "tm.group_settles", "groups settled via rule R5"
        )
        self._rng = np.random.default_rng(seed)
        self._groups: List[ProfilingGroup] = []
        self._orders: List[List[int]] = []
        self._counts: List[int] = []
        self._phase_active = False
        self._direction = Direction.UP
        self._queue_order: List[int] = []
        self._queue_pos = 0
        self._search: Optional[_GroupSearch] = None
        self._phase_start_placement = QueuePlacement.empty()
        self._best_placement = QueuePlacement.empty()
        self._best_throughput = 0.0

    # ------------------------------------------------------------------
    # group management
    # ------------------------------------------------------------------
    def set_groups(
        self,
        groups: Sequence[ProfilingGroup],
        current_placement: Optional[QueuePlacement] = None,
    ) -> None:
        """Install (re-)profiled groups, preserving the current placement.

        Members already queued are moved to the front of each group's
        selection order so the implied placement is unchanged.
        """
        self._groups = list(groups)
        self._orders = []
        self._counts = []
        queued = (
            set(current_placement.queued) if current_placement else set()
        )
        for group in self._groups:
            members = list(group.members)
            self._rng.shuffle(members)
            already = [m for m in members if m in queued]
            rest = [m for m in members if m not in queued]
            self._orders.append(already + rest)
            self._counts.append(len(already))
        self._phase_active = False
        self._search = None

    @property
    def groups(self) -> Tuple[ProfilingGroup, ...]:
        return tuple(self._groups)

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def placement(self) -> QueuePlacement:
        """Current placement implied by the per-group counts."""
        queued: List[int] = []
        for order, count in zip(self._orders, self._counts):
            queued.extend(order[:count])
        return QueuePlacement.of(queued)

    # ------------------------------------------------------------------
    # phase control
    # ------------------------------------------------------------------
    @property
    def phase_active(self) -> bool:
        return self._phase_active

    def begin_phase(
        self, direction: Direction, baseline_throughput: float
    ) -> Step:
        """Start an exploration phase; returns the first trial step.

        If there is nothing to explore in the requested direction the
        phase completes immediately with decision STAY.
        """
        if direction is Direction.NONE:
            raise ValueError("begin_phase requires UP or DOWN")
        self.last_rule = "F7-TM-BEGIN"
        self._m_phases.inc()
        self._direction = direction
        self._phase_start_placement = self.placement()
        self._best_placement = self._phase_start_placement
        self._best_throughput = baseline_throughput
        if direction is Direction.UP:
            order = [
                gi
                for gi in range(len(self._groups))
                if self._counts[gi] < len(self._groups[gi])
            ]
        else:
            order = [
                gi
                for gi in reversed(range(len(self._groups)))
                if self._counts[gi] > 0
            ]
        self._queue_order = order
        self._queue_pos = 0
        if not order:
            self._phase_active = False
            return Step(self.placement(), AdjustDecision.STAY)
        self._phase_active = True
        return self._start_group(baseline_throughput)

    def _start_group(self, baseline_throughput: float) -> Step:
        gi = self._queue_order[self._queue_pos]
        c0 = self._counts[gi]
        size = len(self._groups[gi])
        target = size if self._direction is Direction.UP else 0
        search = _GroupSearch(
            group_index=gi,
            baseline_count=c0,
            anchor=c0,
            fwd=target,
            back=c0,
        )
        search.measurements[c0] = (
            baseline_throughput,
            tuple(self._orders[gi][:c0]),
        )
        self._search = search
        probe = search.next_probe()
        if probe is None:  # degenerate group (already at target)
            return self._next_group_or_finish(search, baseline_throughput)
        self._apply_probe(search, probe)
        return Step(self.placement())

    # ------------------------------------------------------------------
    def _apply_probe(self, search: _GroupSearch, probe: int) -> None:
        """Set group count to ``probe`` with a fresh arbitrary subset.

        Members are drawn relative to the anchor subset: growing keeps
        the anchor's members and samples the additions from the
        remainder; shrinking keeps a random subset of the anchor's
        members.  The anchor subset itself (the first ``anchor``
        entries) is never disturbed, so comparisons stay anchored.
        """
        gi = search.group_index
        order = self._orders[gi]
        a = search.anchor
        if probe > a:
            tail = order[a:]
            self._rng.shuffle(tail)
            order[a:] = tail
        elif probe < a:
            head = order[:a]
            self._rng.shuffle(head)
            order[:a] = head
        self._counts[gi] = probe
        self._m_probes.inc()

    # ------------------------------------------------------------------
    def step(self, observed: float) -> Step:
        """Feed the throughput observed under the last trial placement."""
        if not self._phase_active or self._search is None:
            raise RuntimeError("step() called outside an active phase")
        search = self._search
        gi = search.group_index
        probe = self._counts[gi]
        search.measurements[probe] = (
            observed,
            tuple(self._orders[gi][:probe]),
        )
        self._note_best(observed)

        if significantly_better(
            observed, search.anchor_throughput, self.sens
        ):
            old_anchor = search.anchor
            search.anchor = probe
            self.last_rule = "R1" if search.mode == "fwd" else "R3"
            self._m_anchor_moves.inc()
            # The probe's subset becomes the anchor subset; it already
            # occupies order[:probe].
            if search.mode == "fwd":
                search.back = old_anchor
            else:
                search.fwd = old_anchor
        else:
            self.last_rule = "R2" if search.mode == "fwd" else "R4"
            if search.mode == "fwd":
                search.fwd = probe
            else:
                search.back = probe
            # Revert the selection to the anchor's subset for the next
            # comparison (anchor members are order[:anchor] either way;
            # just restore the count).
            restored = search.measurements[search.anchor][1]
            self._restore_subset(gi, restored)

        target = (
            len(self._groups[gi]) if self._direction is Direction.UP else 0
        )
        if search.anchor == target and search.baseline_count != target:
            self._counts[gi] = search.anchor
            return self._next_group_or_finish(search, observed)

        next_probe = search.next_probe()
        if next_probe is None:
            # R5: both intervals exhausted around the anchor.
            return self._settle_group(search)
        self._apply_probe(search, next_probe)
        return Step(self.placement())

    def _restore_subset(self, gi: int, subset: Tuple[int, ...]) -> None:
        """Put ``subset`` at the front of group gi's order, count-aligned."""
        chosen = list(subset)
        taken = set(subset)
        rest = [m for m in self._orders[gi] if m not in taken]
        self._orders[gi] = chosen + rest
        self._counts[gi] = len(chosen)

    def _settle_group(self, search: _GroupSearch) -> Step:
        """Fix the group on its best SENS-significant (count, subset)
        and continue with the next group."""
        self.last_rule = "R5"
        self._m_group_settles.inc()
        gi = search.group_index
        base_t, base_subset = search.measurements[search.baseline_count]
        best_count, (best_t, best_subset) = (
            search.baseline_count,
            (base_t, base_subset),
        )
        for count, (throughput, subset) in search.measurements.items():
            if significantly_better(throughput, best_t, self.sens):
                best_count, best_t, best_subset = count, throughput, subset
        self._restore_subset(gi, best_subset)
        self._note_best(best_t)
        return self._next_group_or_finish(search, best_t)

    def _next_group_or_finish(
        self, search: _GroupSearch, throughput: float
    ) -> Step:
        self._queue_pos += 1
        if self._queue_pos < len(self._queue_order):
            return self._start_group(throughput)
        return self._finish_phase()

    # ------------------------------------------------------------------
    def _note_best(self, observed: float) -> None:
        """Track the best placement, SENS-gated.

        A candidate only displaces the incumbent when *significantly*
        better; otherwise measurement noise could latch a flat
        configuration as "best" and the phase would end with a spurious
        CHANGE (violating stability).
        """
        if significantly_better(observed, self._best_throughput, self.sens):
            self._best_throughput = observed
            self._best_placement = self.placement()

    def _finish_phase(self) -> Step:
        """Restore the best placement seen and emit the decision."""
        queued = set(self._best_placement.queued)
        for gi, group in enumerate(self._groups):
            members_in = [m for m in self._orders[gi] if m in queued]
            members_out = [
                m for m in self._orders[gi] if m not in queued
            ]
            self._orders[gi] = members_in + members_out
            self._counts[gi] = len(members_in)
        self._phase_active = False
        self._search = None
        changed = (
            self._best_placement.queued
            != self._phase_start_placement.queued
        )
        decision = (
            AdjustDecision.CHANGE if changed else AdjustDecision.STAY
        )
        return Step(self.placement(), decision)
