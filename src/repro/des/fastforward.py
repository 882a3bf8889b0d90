"""Analytic fast-forwarding of steady DES windows.

The engine's batched channels already coalesce per-tuple events into
burst events; the next order of magnitude cannot come from shaving the
per-event constant further — it comes from not dispatching steady-state
events at all.  This module implements that amortization: once a
measurement window has demonstrably settled into a steady state, the
remainder of the window is advanced *analytically* — one clock shift
plus vectorized counter extrapolation — instead of event by event.

Why rates, not cycles
---------------------
The PE is a deterministic timed system, but its state includes the
real-valued relative phases of every thread's next event, and at
saturation those phases never exactly recur (measured empirically: no
event-signature block of the 8-op benchmark pipeline ever repeats
within 68k events).  Exact cycle replay is therefore not available.
What *is* available — and is what the engine's measurements and the
adaptation rules actually consume — is the steady-state **rate** of
every monotone counter: sink/source tuples, per-queue put/got totals,
lock acquisitions, per-thread busy seconds.  Over event-count probes
the realized rates concentrate tightly around the steady mean (~1%
at 4k events), so two consecutive probes that agree pin the steady
state and bound the extrapolation error by the probe variance.

Mechanism
---------
:meth:`FastForwarder.run_window` interleaves bounded event strides
with detection:

1. dispatch one probe of ``probe_events`` events normally, bracketing
   it with counter snapshots;
2. compare the probe's headline rates (sink tuples/s, source tuples/s,
   events per simulated second) with the previous probe's; disagreement
   beyond ``rtol`` means transient — slide the probe window and keep
   executing;
3. on agreement, extrapolate: compute every counter's delta over the
   two combined probes (a numpy-vectorized scaled accumulation), scale
   it to the remaining window span, apply it, and
   :meth:`~repro.des.kernel.Simulator.shift_time` the clock and every
   pending event to the window boundary.

The probes themselves are ordinary execution, so a window that never
settles — adaptation transients, ON/OFF modulation, queue-overflow
churn — simply runs at event granularity end to end.  Short windows
(warmup, the engine's default 10 ms measurement) are likewise
protected: a jump is only taken when the remaining span exceeds
``min_jump_spans`` probe spans, so fast-forwarding engages on the long
steady windows where it pays and stays out of the transient ones.
The engine additionally refuses to construct a fast-forwarder at all
for profiled runs (the sampling clock must observe every interval,
and its period is incommensurate with any steady pattern) and for
open-loop runs whose arrival schedules are modulated or lack
``skip_to`` — a bare arrival iterator is external state a clock shift
cannot advance.  Steady :class:`~repro.scenarios.arrivals.
ArrivalStream` schedules *are* eligible: after a jump the engine
calls ``skip_to`` on every stream so the schedule re-anchors at the
jump target instead of replaying the skipped stretch.

Fidelity
--------
Extrapolated totals equal the steady rates measured over the
confirmation probes times the skipped span; the relative error against
full execution is bounded by the probe-to-probe rate variance (~1% at
the default probe size, and shrinking with the square root of probe
length as fluctuations average out).  Because the adaptation rules
(R1–R5) compare window throughput against coarse thresholds with
hysteresis, this is far below decision resolution — the
batched-equivalence suite pins byte-identical decision sequences with
fast-forward on vs off across the scenario zoo.  Runs remain exactly
deterministic: the same configuration takes the same probes and the
same jump every time.
"""

from __future__ import annotations

from typing import Optional, Tuple

# Events per probe.  ~0.7 ms of simulated time on the benchmark
# pipeline; rate fluctuation at this size is ~1%.
_PROBE_EVENTS = 4096
# Maximum relative disagreement between consecutive probes' headline
# rates for the window to count as settled.
_RTOL = 0.05
# A jump must skip at least this many probe spans to be worth taking;
# also what keeps warmup and other short windows at event granularity.
_MIN_JUMP_SPANS = 4.0


def _rel_close(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class FastForwarder:
    """Drives one engine's windows with steady-state detection +
    analytic extrapolation.

    Created by :class:`~repro.des.engine.DesEngine` when its channel
    enables ``fastforward``, the run is unprofiled, and every arrival
    schedule (none, for closed loop) is steady and skippable.
    """

    def __init__(
        self,
        engine,
        probe_events: int = _PROBE_EVENTS,
        rtol: float = _RTOL,
        min_jump_spans: float = _MIN_JUMP_SPANS,
    ) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.probe_events = probe_events
        self.rtol = rtol
        self.min_jump_spans = min_jump_spans
        # Jumps taken; the kernel's events_fastforwarded counts the
        # events they elide.
        self.jumps = 0

    # ------------------------------------------------------------------
    def run_window(self, t_end: float) -> None:
        """Advance the simulation to ``t_end``, fast-forwarding the
        steady remainder; drop-in for ``Simulator.run_until(t_end)``."""
        sim = self.sim
        engine = self.engine
        heap = sim._heap
        # (counters_at_probe_start, span, headline_rates) of the
        # previous full probe; None while still in transient.
        prev: Optional[Tuple[Tuple, float, Tuple[float, ...]]] = None
        while True:
            if not heap or heap[0][0] > t_end:
                # Nothing left before the boundary: finalize the clock
                # (and the deadlock latch) exactly as a plain run does.
                sim.run_until(t_end)
                return
            t0 = sim.now
            c0 = engine._ff_counters()
            n = sim.run_until(t_end, max_events=self.probe_events)
            span = sim.now - t0
            if n < self.probe_events or span <= 0.0:
                # Hit the boundary (or a zero-span burst of
                # simultaneous events): not a usable probe.
                prev = None
                continue
            c1 = engine._ff_counters()
            rates = (
                (c1[0] - c0[0]) / span,  # sink tuples / sim s
                (c1[1] - c0[1]) / span,  # source tuples / sim s
                n / span,  # dispatched events / sim s
            )
            remaining = t_end - sim.now
            if (
                prev is not None
                and remaining > self.min_jump_spans * (prev[1] + span)
                and all(
                    _rel_close(r, p, self.rtol)
                    for r, p in zip(rates, prev[2])
                )
            ):
                # Settled: extrapolate the combined probes over the
                # whole remaining span and jump to the boundary.
                total_span = prev[1] + span
                scale = remaining / total_span
                engine._ff_extrapolate(prev[0], c1, scale)
                sim.shift_time(remaining)
                engine._ff_skip_arrivals(sim.now)
                sim.events_fastforwarded += int(
                    round(scale * (self.probe_events + n))
                )
                self.jumps += 1
                prev = None
                continue
            prev = (c0, span, rates)
