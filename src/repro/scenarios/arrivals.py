"""Seeded open-loop arrival processes with time-varying rate envelopes.

An :class:`ArrivalProcess` turns an :class:`~.schema.ArrivalSpec` into
concrete arrival timestamps.  Everything is stdlib-only and driven by
``random.Random(seed)``, so a (spec, seed, t0) triple always produces
the same stream — the property the regression zoo depends on.

Rate envelopes are *piecewise constant*: :meth:`ArrivalProcess.rate_at`
and :meth:`ArrivalProcess.segments` discretize the modulation into the
same constant-rate slots, so the generators and the test oracles agree
exactly on the envelope (no sampling-vs-integral drift).  Envelopes are
streamed: :meth:`ArrivalProcess.iter_segments` builds each segment only
when the consumer reads it, so a measurement window that uses a few
milliseconds of a fast ON/OFF envelope never materializes the rest.

Generation:

- ``deterministic``: evenly spaced arrivals within each constant-rate
  segment, integrating rate into a fractional tuple "credit" that is
  carried across segment boundaries, so long-run counts match the
  integral of the envelope exactly.
- ``poisson``: inhomogeneous Poisson via thinning (Lewis & Shedler):
  candidate gaps at the envelope's peak rate, each kept with
  probability ``rate(t)/peak``.  Exact for piecewise-constant
  envelopes and trivially seeded.

Streams are **infinite** iterators.  The DES deadlock detector latches
when the event heap drains while tasks are still alive, so a finite
arrival schedule inside a measurement window would be indistinguishable
from deadlock; an unbounded stream keeps the semantics honest and lets
the engine cut the run off at the horizon.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..sums import left_sum
from .schema import ArrivalKind, ArrivalSpec, ModulationKind, ModulationSpec

# Flash crowds / ramps are one-shot: after the transition the envelope
# is flat forever, which we represent with a single long tail segment.
_TAIL_S = 1e9


def _diurnal_factors(mod: ModulationSpec) -> List[float]:
    """Per-slot factors of one discretized diurnal period.

    A raised cosine between ``low_factor`` and ``high_factor``, sampled
    at slot midpoints: slot 0 starts at the trough so every scenario
    begins in the quiet phase.
    """
    mid = 0.5 * (mod.low_factor + mod.high_factor)
    amp = 0.5 * (mod.high_factor - mod.low_factor)
    out = []
    for k in range(mod.steps):
        phase = 2.0 * math.pi * (k + 0.5) / mod.steps
        out.append(mid - amp * math.cos(phase))
    return out


@dataclass(frozen=True)
class ArrivalProcess:
    """A concrete arrival process: spec + resolved seed."""

    spec: ArrivalSpec
    seed: int = 0

    def __post_init__(self) -> None:
        if self.spec.kind is ArrivalKind.SATURATED:
            raise ValueError(
                "saturated arrivals have no schedule; "
                "ArrivalProcess is for open-loop kinds only"
            )

    # ------------------------------------------------------------------
    # envelope
    # ------------------------------------------------------------------
    def segments(self, t0: float, horizon_s: float) -> List[Tuple[float, float, float]]:
        """Constant-rate ``(start, end, rate)`` segments covering
        ``[t0, t0 + horizon_s)``."""
        return list(self.iter_segments(t0, horizon_s))

    def iter_segments(
        self, t0: float, horizon_s: float
    ) -> Iterator[Tuple[float, float, float]]:
        """Lazy form of :meth:`segments`: the same segments with the
        same arithmetic, built only as far as the consumer reads."""
        base = self.spec.rate
        mod = self.spec.modulation
        end = t0 + horizon_s
        t = t0
        if mod.kind is ModulationKind.NONE:
            yield (t0, end, base)
        elif mod.kind is ModulationKind.DIURNAL:
            factors = _diurnal_factors(mod)
            slot_s = mod.period_s / mod.steps
            k = math.floor(t / slot_s)
            while t < end:
                seg_end = min((k + 1) * slot_s, end)
                if seg_end > t:
                    yield (t, seg_end, base * factors[k % mod.steps])
                t = seg_end
                k += 1
        elif mod.kind is ModulationKind.ONOFF:
            # Cycle-indexed (not accumulated) so float error cannot
            # stall progress near phase boundaries.
            cycle = mod.on_s + mod.off_s
            k = math.floor(t0 / cycle)
            while True:
                cycle_start = k * cycle
                on_end = cycle_start + mod.on_s
                off_end = (k + 1) * cycle
                s, e = max(cycle_start, t0), min(on_end, end)
                if e > s:
                    yield (s, e, base)
                s, e = max(on_end, t0), min(off_end, end)
                if e > s:
                    yield (s, e, 0.0)
                if off_end >= end:
                    return
                k += 1
        elif mod.kind is ModulationKind.FLASH_CROWD:
            # base | ramp up | hold at factor*base | ramp down | base.
            bounds = [
                (0.0, mod.at_s),
                (mod.at_s, mod.at_s + mod.ramp_s),
                (mod.at_s + mod.ramp_s, mod.at_s + mod.ramp_s + mod.hold_s),
                (
                    mod.at_s + mod.ramp_s + mod.hold_s,
                    mod.at_s + 2.0 * mod.ramp_s + mod.hold_s,
                ),
                (mod.at_s + 2.0 * mod.ramp_s + mod.hold_s, _TAIL_S),
            ]
            yield from self._piecewise(bounds, t0, end, self._flash_factor)
        elif mod.kind is ModulationKind.RAMP:
            bounds = [
                (0.0, mod.at_s),
                (mod.at_s, mod.at_s + mod.ramp_s),
                (mod.at_s + mod.ramp_s, _TAIL_S),
            ]
            yield from self._piecewise(bounds, t0, end, self._ramp_factor)
        else:
            raise AssertionError(f"unhandled modulation {mod.kind}")

    def _piecewise(
        self, bounds, t0, end, factor_fn
    ) -> Iterator[Tuple[float, float, float]]:
        """Discretize linear-ramp phases into ``steps`` constant slots."""
        mod = self.spec.modulation
        base = self.spec.rate
        for lo, hi in bounds:
            if hi <= t0 or lo >= end:
                continue
            is_ramp = hi - lo <= mod.ramp_s * 1.0000001 and factor_fn(
                lo
            ) != factor_fn(max(lo, hi - 1e-12))
            n = mod.steps if is_ramp else 1
            slot = (hi - lo) / n
            for k in range(n):
                s, e = lo + k * slot, lo + (k + 1) * slot
                s2, e2 = max(s, t0), min(e, end)
                if e2 > s2:
                    yield (s2, e2, base * factor_fn(0.5 * (s + e)))

    def _flash_factor(self, t: float) -> float:
        mod = self.spec.modulation
        up0, up1 = mod.at_s, mod.at_s + mod.ramp_s
        dn0 = up1 + mod.hold_s
        dn1 = dn0 + mod.ramp_s
        if t < up0 or t >= dn1:
            return 1.0
        if t < up1:
            return 1.0 + (mod.factor - 1.0) * (t - up0) / mod.ramp_s
        if t < dn0:
            return mod.factor
        return mod.factor - (mod.factor - 1.0) * (t - dn0) / mod.ramp_s

    def _ramp_factor(self, t: float) -> float:
        mod = self.spec.modulation
        if t < mod.at_s:
            return mod.low_factor
        if t >= mod.at_s + mod.ramp_s:
            return mod.high_factor
        frac = (t - mod.at_s) / mod.ramp_s
        return mod.low_factor + (mod.high_factor - mod.low_factor) * frac

    def rate_at(self, t: float) -> float:
        """Envelope rate at absolute time ``t`` (piecewise-constant,
        consistent with :meth:`segments`)."""
        for _start, _end, rate in self.iter_segments(t, 1e-9):
            return rate
        return 0.0

    def peak_rate(self) -> float:
        """Supremum of the envelope over all time."""
        base = self.spec.rate
        mod = self.spec.modulation
        if mod.kind is ModulationKind.NONE:
            return base
        if mod.kind is ModulationKind.DIURNAL:
            return base * max(_diurnal_factors(mod))
        if mod.kind is ModulationKind.ONOFF:
            return base
        if mod.kind is ModulationKind.FLASH_CROWD:
            # midpoint sampling keeps slot factors strictly below the
            # nominal peak; the nominal peak is still the sup.
            return base * mod.factor
        if mod.kind is ModulationKind.RAMP:
            return base * max(mod.low_factor, mod.high_factor)
        raise AssertionError(f"unhandled modulation {mod.kind}")

    def mean_rate(self) -> float:
        """Long-run average rate (used to cap the perfmodel backend)."""
        base = self.spec.rate
        mod = self.spec.modulation
        if mod.kind is ModulationKind.NONE:
            return base
        if mod.kind is ModulationKind.DIURNAL:
            factors = _diurnal_factors(mod)
            return base * left_sum(factors) / len(factors)
        if mod.kind is ModulationKind.ONOFF:
            return base * mod.on_s / (mod.on_s + mod.off_s)
        if mod.kind is ModulationKind.FLASH_CROWD:
            return base  # transient burst; long-run rate is the base
        if mod.kind is ModulationKind.RAMP:
            return base * mod.high_factor  # eventually holds high
        raise AssertionError(f"unhandled modulation {mod.kind}")

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def stream(self, t0: float = 0.0) -> Iterator[float]:
        """Infinite iterator of absolute arrival times, ascending,
        starting at or after ``t0``.  Deterministic in (spec, seed, t0).
        """
        if self.spec.kind is ArrivalKind.DETERMINISTIC:
            return self._deterministic_stream(t0)
        return self._poisson_stream(t0)

    def _deterministic_stream(self, t0: float) -> Iterator[float]:
        credit = 0.0
        for start, end, rate in self._segments_forever(t0):
            if rate <= 0.0:
                continue
            interval = 1.0 / rate
            # first arrival in this segment honours leftover credit
            t = start + (1.0 - credit) * interval
            while t <= end:
                yield t
                t += interval
            credit = (end - (t - interval)) * rate

    def _poisson_stream(self, t0: float) -> Iterator[float]:
        rng = random.Random(self.seed)
        peak = self.peak_rate()
        if peak <= 0.0:
            return
        for start, end, rate in self._segments_forever(t0):
            if rate <= 0.0:
                continue
            accept = rate / peak
            t = start
            while True:
                t += rng.expovariate(peak)
                if t > end:
                    break
                if accept >= 1.0 or rng.random() < accept:
                    yield t

    def _segments_forever(
        self, t0: float, chunk_s: float = 64.0
    ) -> Iterator[Tuple[float, float, float]]:
        # Chunked so segment bounds (and hence the deterministic
        # stream's credit arithmetic) do not depend on how far the
        # consumer reads; each chunk is itself streamed lazily.
        for i in itertools.count():
            yield from self.iter_segments(t0 + i * chunk_s, chunk_s)

    def times(self, t0: float, horizon_s: float) -> List[float]:
        """Finite list of arrivals in ``[t0, t0 + horizon_s)``."""
        out = []
        limit = t0 + horizon_s
        for t in self.stream(t0):
            if t >= limit:
                break
            out.append(t)
        return out

    def arrival_stream(self, t0: float = 0.0) -> Iterator[float]:
        """The schedule a DES measurement window consumes: ``t - t0``
        for each ``t`` in :meth:`stream` (the window restarts its
        simulation clock at zero, while the envelope is evaluated at
        absolute scenario time)."""
        for t in self.stream(t0):
            yield t - t0

    def key(self) -> Tuple:
        """Hashable identity for measurement-cache keys."""
        mod = self.spec.modulation
        return (
            self.spec.kind.value,
            self.spec.rate,
            self.seed,
            mod.kind.value,
            mod.period_s,
            mod.low_factor,
            mod.high_factor,
            mod.steps,
            mod.on_s,
            mod.off_s,
            mod.at_s,
            mod.ramp_s,
            mod.hold_s,
            mod.factor,
        )
