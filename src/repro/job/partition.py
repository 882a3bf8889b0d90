"""Partition strategies: deterministic tuple routing across replicas.

An inter-PE channel fans one upstream stream out over the R replicas
of its downstream PE.  The router decides *which* replica(s) each
tuple reaches; the job executor only consumes two aggregates of that
decision:

- :meth:`Router.shares` — the long-run fraction of the stream each
  replica receives (the rate-coupling input: replica i's offered load
  is ``channel_rate * share_i``);
- :meth:`Router.route` — the per-tuple assignment, exposed so tests
  can pin routing determinism tuple by tuple.

Everything is seeded through blake2b (stable across processes and
Python versions, unlike ``hash()``), so a ``(strategy, replicas,
seed, key_space)`` quadruple always yields the same routing sequence
— the property the multi-PE regression tests depend on.

The strategy vocabulary mirrors Ray streaming's ``PStrategy`` /
Flink's partitioners (see the paper-adjacent references in
SNIPPETS.md): Forward, RoundRobin, Shuffle, KeyHash (ShuffleByKey),
Broadcast.  The enum itself lives in
:mod:`repro.scenarios.schema.PartitionStrategy` to keep the schema
free of job-layer imports.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

from ..scenarios.schema import PartitionStrategy
from ..sums import left_sum

# Sequence window over which empirical shuffle shares are measured.
# 1<<12 tuples per replica-count keeps the estimate within ~2% of the
# uniform 1/R limit while staying cheap to precompute.
_SHUFFLE_WINDOW = 4096


def _h64(seed: int, *parts: int) -> int:
    """Stable 64-bit hash of (seed, parts)."""
    payload = (",".join(str(p) for p in (seed,) + parts)).encode()
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


class Router:
    """Base router: R replicas, seeded, deterministic."""

    def __init__(self, replicas: int, seed: int = 0) -> None:
        if replicas < 1:
            raise ValueError(f"router needs >= 1 replica, got {replicas}")
        self.replicas = replicas
        self.seed = seed

    def route(self, seq: int) -> Tuple[int, ...]:
        """Replica indices receiving tuple ``seq`` (0-based)."""
        raise NotImplementedError

    def shares(self) -> Tuple[float, ...]:
        """Long-run fraction of the stream each replica receives."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def max_share(self) -> float:
        """The hottest replica's share — what the representative
        (simulated) replica is offered."""
        return max(self.shares())

    @property
    def effective_replicas(self) -> float:
        """Aggregate capacity in units of the hottest replica.

        ``sum(shares) / max(shares)``: R for perfectly balanced
        strategies, lower under key skew — the factor scaling the
        simulated replica's emission up to the whole PE's.
        """
        shares = self.shares()
        return left_sum(shares) / max(shares)


class ForwardRouter(Router):
    """Pass-through: the 1:1 inter-PE edge (requires one replica)."""

    def __init__(self, replicas: int, seed: int = 0) -> None:
        if replicas != 1:
            raise ValueError(
                f"forward routing requires exactly 1 replica, got "
                f"{replicas}"
            )
        super().__init__(replicas, seed)

    def route(self, seq: int) -> Tuple[int, ...]:
        return (0,)

    def shares(self) -> Tuple[float, ...]:
        return (1.0,)


class RoundRobinRouter(Router):
    """Tuple ``i`` to replica ``i mod R`` — exact balance."""

    def route(self, seq: int) -> Tuple[int, ...]:
        return (seq % self.replicas,)

    def shares(self) -> Tuple[float, ...]:
        return (1.0 / self.replicas,) * self.replicas


class ShuffleRouter(Router):
    """Seeded hash of the sequence number — deterministic spraying.

    Shares are *measured* over a fixed window rather than assumed
    uniform, so the rate coupling sees the same small imbalance an
    actual run of the routing sequence would produce.
    """

    def __init__(self, replicas: int, seed: int = 0) -> None:
        super().__init__(replicas, seed)
        counts = [0] * replicas
        for seq in range(_SHUFFLE_WINDOW):
            counts[_h64(seed, seq) % replicas] += 1
        self._shares = tuple(c / _SHUFFLE_WINDOW for c in counts)

    def route(self, seq: int) -> Tuple[int, ...]:
        return (_h64(self.seed, seq) % self.replicas,)

    def shares(self) -> Tuple[float, ...]:
        return self._shares


class KeyHashRouter(Router):
    """Key-partitioned routing over a synthetic key space.

    The tuple key is itself derived deterministically from the
    sequence number (``key = h(seed+1, seq) mod key_space``) — the
    scenario layer has no real payloads to key on — and the replica is
    the key's hash bucket.  Shares are exact: each of the
    ``key_space`` keys carries equal weight, so a replica's share is
    the fraction of keys hashing to it.  Small key spaces give the
    skew that makes key partitioning interesting: with 16 keys over 8
    replicas some replica usually owns 3+ keys and becomes the
    hot spot that caps effective parallelism.
    """

    def __init__(
        self, replicas: int, seed: int = 0, key_space: int = 1024
    ) -> None:
        super().__init__(replicas, seed)
        if key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {key_space}")
        self.key_space = key_space
        counts = [0] * replicas
        for key in range(key_space):
            counts[_h64(seed, key) % replicas] += 1
        self._shares = tuple(c / key_space for c in counts)

    def key_of(self, seq: int) -> int:
        return _h64(self.seed + 1, seq) % self.key_space

    def route(self, seq: int) -> Tuple[int, ...]:
        return (_h64(self.seed, self.key_of(seq)) % self.replicas,)

    def shares(self) -> Tuple[float, ...]:
        return self._shares


class BroadcastRouter(Router):
    """Every replica receives every tuple."""

    def route(self, seq: int) -> Tuple[int, ...]:
        return tuple(range(self.replicas))

    def shares(self) -> Tuple[float, ...]:
        return (1.0,) * self.replicas


def make_router(
    strategy: PartitionStrategy,
    replicas: int,
    seed: int = 0,
    key_space: int = 1024,
) -> Router:
    """Build the router for one inter-PE channel."""
    if strategy is PartitionStrategy.FORWARD:
        return ForwardRouter(replicas, seed)
    if strategy is PartitionStrategy.ROUND_ROBIN:
        return RoundRobinRouter(replicas, seed)
    if strategy is PartitionStrategy.SHUFFLE:
        return ShuffleRouter(replicas, seed)
    if strategy is PartitionStrategy.KEY_HASH:
        return KeyHashRouter(replicas, seed, key_space)
    if strategy is PartitionStrategy.BROADCAST:
        return BroadcastRouter(replicas, seed)
    raise AssertionError(f"unhandled strategy {strategy}")
