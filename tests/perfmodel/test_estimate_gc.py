"""A cached estimate leaves the cyclic collector no per-region garbage.

Every missed estimate is kept in the model's estimate cache.  Each
object it keeps that the collector tracks is traversed by the young
collections that allocation triggers, until a collection untracks it,
so the estimate must keep a constant handful, whatever the number of
regions: a tuple of ``(head, work)`` pairs would add one tuple per
region.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

from repro.perfmodel import PerformanceModel
from repro.runtime import QueuePlacement
from test_estimate_golden import _compiled

# Placements one 512-operator pipeline adaptation run decomposes.
PROBES = (
    Path(__file__).resolve().parents[1] / "runtime" / "decompose_golden.json"
)
ESTIMATES = 40
# The estimate, its attribute dict, its works tuple, its heads tuple and
# its cache key, plus slack for the model's own bookkeeping.
TRACKED_PER_ESTIMATE = 6
# Regions of every probe timed (one source region plus one per queue).
MIN_REGIONS = 4 * TRACKED_PER_ESTIMATE


def _placements():
    texts = json.loads(PROBES.read_text())["run"]["placements"]
    distinct = {}
    for text in texts:
        placement = QueuePlacement.of(int(i) for i in text.split())
        if placement.n_queues + 1 >= MIN_REGIONS:
            distinct.setdefault(placement.queued, placement)
    return list(distinct.values())[:ESTIMATES]


def test_cached_estimates_add_few_tracked_objects():
    compiled = _compiled("xeon-wide-pipeline")
    model = PerformanceModel(compiled.graph, compiled.machine)
    placements = _placements()
    assert len(placements) == ESTIMATES
    model.estimate(placements[0], 16)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for placement in placements[1:]:
            model.estimate(placement, 16)
        tracked = len(gc.get_objects(generation=0))
    finally:
        if enabled:
            gc.enable()
    assert tracked <= TRACKED_PER_ESTIMATE * (ESTIMATES - 1), tracked
