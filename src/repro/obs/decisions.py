"""Structured decision records: the causal log of the elastic loop.

Every adaptation period the coordinator emits exactly one
:class:`Decision` explaining *why* it acted (or held still): which of
the threading-model search rules R1-R5 or which branch of the Fig. 7
coordination loop fired, whether a history record was consulted and
hit, and what the measured satisfaction factor was.  Configuration
changes (:class:`~repro.runtime.events.ThreadCountChange` /
:class:`~repro.runtime.events.PlacementChange`) are logged in the same
sequence, so any change can be traced back to the decision immediately
preceding it.

The rule vocabulary is closed: emitting a decision with an unknown
rule tag raises, which keeps the log auditable (a consumer can rely on
every tag being documented here and in docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import FrozenSet, Optional

# ----------------------------------------------------------------------
# rule vocabulary
# ----------------------------------------------------------------------
#: Threading-model group-search rules (paper Fig. 3 / Fig. 4).  The
#: two-sided bisection hill-climb realizes them as: forward probe
#: improved (R1) / failed (R2), backward probe improved (R3) / failed
#: (R4), both intervals exhausted -> settle the group (R5).
TM_RULES: FrozenSet[str] = frozenset({"R1", "R2", "R3", "R4", "R5"})

#: Branches of the Fig. 7 multi-level ``adapt()`` loop.
F7_BRANCHES: FrozenSet[str] = frozenset(
    {
        "F7-INIT",  # first period: profile + open initial UP phase
        "F7-TM-BEGIN",  # a threading-model phase issued its first probe
        "F7-TM-SETTLED",  # phase finished (STAY/CHANGE), back to threads
        "F7-SECONDARY-UP",  # thread change triggered secondary, adding
        "F7-SECONDARY-DOWN",  # thread change triggered secondary, removing
        "F7-THREAD-COUNT",  # primary adjustment proposed a new count
        "F7-SETTLE-PROBE",  # final TM pass before declaring stability
        "F7-SETTLED",  # neither component can improve: stable
        "F7-HOLD",  # no change proposed this period
        "F7-STABLE",  # stable-mode monitoring, no deviation
        "F7-WORKLOAD-CHANGE",  # deviation persisted: re-profile, restart
        "F7-WARM-START",  # model prior seeded the search (exploration on)
        "F7-WARM-SNAP",  # phase-store posterior snapped straight to STABLE
    }
)

#: Branches of the rejected threading-model-primary ordering
#: (:mod:`repro.core.alt_coordinator`), logged for the ablations.
ALT_BRANCHES: FrozenSet[str] = frozenset(
    {
        "ALT-INIT",
        "ALT-INNER-THREADS",
        "ALT-OUTER-TRIAL",
        "ALT-SETTLED",
        "ALT-STABLE",
        "ALT-HOLD",
    }
)

#: Job-level coordinator rules (:mod:`repro.job.coordinator`): replica
#: scale-out/in of elastic PEs and cross-PE thread arbitration.  These
#: ride in the same log as the per-PE R1-R5/Fig.7 decisions, tagged
#: with ``scope="job"`` so per-PE traces stay filterable.
JOB_RULES: FrozenSet[str] = frozenset(
    {
        "JOB-INIT",  # first period: job coordinator comes up
        "JOB-SCALE-OUT",  # elastic PE gained a replica
        "JOB-SCALE-IN",  # elastic PE shed a replica
        "JOB-ARB",  # thread budget exceeded: a PE was clamped
        "JOB-HOLD",  # job-level loop saw nothing to change
    }
)

VALID_RULES: FrozenSet[str] = TM_RULES | F7_BRANCHES | ALT_BRANCHES | JOB_RULES


@dataclass(frozen=True)
class Decision:
    """One adaptation period's controller decision, fully attributed.

    Attributes
    ----------
    seq:
        Position in the hub's unified log (decisions and configuration
        changes share one sequence, so ordering is total).
    time_s / period:
        Virtual time and adaptation-period index of the observation
        the decision reacted to.
    component:
        Which controller emitted it (``coordinator`` or
        ``alt_coordinator``).
    mode:
        The coordinator mode at decision time (Fig. 7 state).
    rule:
        The R1-R5 search rule or Fig. 7 branch that fired — must be a
        member of :data:`VALID_RULES`.
    detail:
        Sub-component explanation (e.g. the thread-count controller's
        phase and proposed move, or the TM decision STAY/CHANGE).
    observed:
        The throughput observation fed to the controller.
    trend:
        SENS-classified trend vs. the previous observation
        (``up`` / ``down`` / ``flat``).
    history_hit:
        True when the history record validated the new thread level and
        the secondary adjustment was skipped (§3.3 optimization 1).
    satisfaction:
        Measured satisfaction factor for the evaluated thread change
        (§3.3 optimization 2), or None when not evaluated this period.
    set_threads / set_n_queues:
        The configuration change the decision produced (None = no
        change of that kind).
    note:
        The human-readable action note (matches
        :class:`~repro.core.coordinator.CoordinatorAction.note`).
    scope:
        Which execution context emitted the decision: ``""`` for a
        plain single-PE run, ``"pe.<name>"`` for a PE inside a
        multi-PE job, ``"job"`` for the job-level coordinator.  Lets
        one hub carry a whole job's interleaved decision streams while
        keeping every PE's R1-R5 trace individually filterable.
    """

    seq: int
    time_s: float
    period: int
    component: str
    mode: str
    rule: str
    detail: str
    observed: float
    trend: str
    history_hit: bool
    satisfaction: Optional[float]
    set_threads: Optional[int]
    set_n_queues: Optional[int]
    note: str
    scope: str = ""

    def __post_init__(self) -> None:
        if self.rule not in VALID_RULES:
            raise ValueError(
                f"unknown decision rule {self.rule!r}; valid rules: "
                f"{sorted(VALID_RULES)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Decision":
        return Decision(
            seq=int(data["seq"]),
            time_s=float(data["time_s"]),
            period=int(data["period"]),
            component=str(data["component"]),
            mode=str(data["mode"]),
            rule=str(data["rule"]),
            detail=str(data["detail"]),
            observed=float(data["observed"]),
            trend=str(data["trend"]),
            history_hit=bool(data["history_hit"]),
            satisfaction=(
                None
                if data.get("satisfaction") is None
                else float(data["satisfaction"])
            ),
            set_threads=(
                None
                if data.get("set_threads") is None
                else int(data["set_threads"])
            ),
            set_n_queues=(
                None
                if data.get("set_n_queues") is None
                else int(data["set_n_queues"])
            ),
            note=str(data.get("note", "")),
            scope=str(data.get("scope", "")),
        )


@dataclass(frozen=True)
class LoggedEvent:
    """A runtime trace event embedded in the decision log.

    ``data`` is one of the stable public trace types from
    :mod:`repro.runtime.events` (Observation, ThreadCountChange,
    PlacementChange); ``kind`` names which.  The events ride in the
    same sequence as decisions so causality is reconstructible from
    the log alone.
    """

    seq: int
    kind: str
    time_s: float
    data: object
