"""Batched channel configuration for the DES engine.

The engine's scheduler queues are *channels*: tuples move through them
in coalesced batches so one kernel event carries a whole burst
end-to-end (the Ray streaming ``QueueConfig`` design — max size, batch
size, flush timeout — transplanted onto the simulator).  Batching is a
pure event-coalescing transform: every tuple still pays its full
per-tuple cost (scan, pop synchronization, operator work, push copy),
so simulated time — and therefore every measurement and every R1–R5
adaptation decision — is identical to moving tuples one at a time.
Only the number of simulator events changes.

:class:`ChannelConfig` bundles the knobs:

``batch_size``
    Tuples one coalesced event may carry.  Scheduler threads drain up
    to this many tuples per port claim; saturated sources emit bursts
    of this size.  Bursts are additionally capped by the core
    timeslice (a thread never stretches a burst across a core
    hand-off) and by the claimed queue's occupancy, so raising it past
    the timeslice (32 tuples) has no further effect.

``flush_timeout_s``
    Upper bound on the *simulated* span of one coalesced burst event.
    A burst is flushed early when carrying another tuple would advance
    the clock past this horizon, which bounds how coarse the engine's
    time quantization can get on expensive operators (e.g. so sampled
    profiler snapshots keep sub-burst resolution).  ``None`` (the
    default) leaves the batch size as the only bound.

``prefetch``
    Extra batches a scheduler thread may drain from a claimed port
    before rescanning the queue list.  Each prefetched batch still
    pays full per-tuple costs, but the thread skips the rescan that
    could have diverted it to another queue — this trades strict
    round-robin work-finding fidelity for fewer events, so it is
    **excluded from the batched-vs-unbatched equivalence guarantee**
    and defaults to off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not a batch size.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ChannelConfig:
    """Validated batching knobs for the DES engine's channels."""

    batch_size: int = 8
    flush_timeout_s: Optional[float] = None
    prefetch: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.batch_size) or self.batch_size < 1:
            raise ValueError(
                f"batch_size must be an integer >= 1, "
                f"got {self.batch_size!r}"
            )
        if self.flush_timeout_s is not None and not (
            self.flush_timeout_s > 0.0
        ):
            raise ValueError(
                f"flush_timeout_s must be > 0 (or None), "
                f"got {self.flush_timeout_s!r}"
            )
        if not _is_int(self.prefetch) or self.prefetch < 0:
            raise ValueError(
                f"prefetch must be an integer >= 0, got {self.prefetch!r}"
            )

    def key(self) -> Tuple:
        """Hashable identity for measurement-cache fingerprints."""
        return (self.batch_size, self.flush_timeout_s, self.prefetch)

    def max_burst(self, per_tuple_s: float) -> int:
        """Largest burst of tuples one event may carry at this cost.

        The flush timeout bounds the simulated span of a coalesced
        event; a burst always carries at least one tuple (flushing
        below one tuple would mean never making progress).
        """
        cap = self.batch_size
        if self.flush_timeout_s is not None and per_tuple_s > 0.0:
            cap = min(cap, int(self.flush_timeout_s / per_tuple_s))
        return max(1, cap)


#: The engine default: the fast-path claim batching shipped by the DES
#: fast-path rewrite (8 tuples per claim), no flush cap, no prefetch —
#: byte-compatible with historical runs.
DEFAULT_CHANNEL = ChannelConfig()
