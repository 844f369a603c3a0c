"""The synthetic traffic model and the user → shard router.

The fleet serves a *population* of users, each with a deterministic
session (request count, think times, and which requests hit the leaky
code path), all derived by hashing ``(model seed, user id)`` — so the
model scales to millions of users without materializing anything per
user: a shard's client draws each request as it sends it
(:meth:`TrafficModel.request`), and no session is ever held whole.

Routing is seeded and deterministic with **per-user session affinity**:
a user's whole session lands on one shard, always the same one for a
given ``(seed, policy, shard count)``.  Two placement policies:

- ``hash`` — stateless rendezvous-style placement by user-id hash;
- ``load`` — users (in id order) go to the shard with the least expected
  request load so far, ties to the lowest shard id.  Still a pure
  function of the model, so workers can be handed just their user ids.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.runtime.clock import MILLISECOND

ROUTING_POLICIES = ("hash", "load")

#: Workload shapes a shard can run; both reuse the leak sites of the
#: paper's service experiments (controlled double-send / Listing-7
#: forgotten completion read).
WORKLOADS = ("controlled", "production")

#: A user's think time between requests, and its uniform jitter (ms).
THINK_MS = 5
THINK_JITTER_MS = 3


def stable_hash64(*parts) -> int:
    """A process- and run-stable 64-bit hash (Python's ``hash`` is
    salted per process, which would break cross-process determinism)."""
    text = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(text, digest_size=8).digest(), "big")


class TrafficModel:
    """Seeded description of the whole fleet's offered load.

    Every derived quantity is a pure function of ``(seed, user_id)``;
    the model object itself is tiny and picklable, so the supervisor
    ships it to worker processes and each worker re-derives exactly the
    requests of the users routed to it, one at a time.
    """

    def __init__(self, n_users: int = 64, min_requests: int = 2,
                 max_requests: int = 6, leak_rate: float = 0.1,
                 workload: str = "controlled", seed: int = 0):
        if n_users < 1:
            raise ValueError("n_users must be positive")
        if not 0 <= min_requests <= max_requests:
            raise ValueError("need 0 <= min_requests <= max_requests")
        if not 0.0 <= leak_rate <= 1.0:
            raise ValueError("leak_rate must be in [0, 1]")
        if workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {WORKLOADS}, got {workload!r}")
        self.n_users = n_users
        self.min_requests = min_requests
        self.max_requests = max_requests
        self.leak_rate = leak_rate
        self.workload = workload
        self.seed = seed

    def request_count(self, user_id: int) -> int:
        """Session length, without materializing the session (the load
        router's balancing weight)."""
        span = self.max_requests - self.min_requests + 1
        return self.min_requests + (
            stable_hash64(self.seed, "len", user_id) % span)

    def request(self, user_id: int, i: int) -> Tuple[int, bool]:
        """Request ``i`` of a user's session: ``(think_ns, leaky)``,
        drawn on its own so a session is never held whole."""
        jitter = (stable_hash64(self.seed, "think", user_id, i)
                  % (2 * THINK_JITTER_MS + 1)) - THINK_JITTER_MS
        # 53-bit mantissa keeps the uniform draw exact.
        draw = (stable_hash64(self.seed, "leak", user_id, i)
                >> 11) / float(1 << 53)
        return max(0, THINK_MS + jitter) * MILLISECOND, draw < self.leak_rate

    def as_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "min_requests": self.min_requests,
            "max_requests": self.max_requests,
            "think_ms": THINK_MS,
            "think_jitter_ms": THINK_JITTER_MS,
            "leak_rate": self.leak_rate,
            "workload": self.workload,
            "seed": self.seed,
        }


class Router:
    """Places users onto shards; see the module docstring for policies."""

    def __init__(self, n_shards: int, policy: str = "hash", seed: int = 0):
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"policy must be one of {ROUTING_POLICIES}, got {policy!r}")
        self.n_shards = n_shards
        self.policy = policy
        self.seed = seed
        #: Memoized affinity decisions (the ``load`` policy is stateful
        #: across assignments; ``hash`` fills this lazily for symmetry).
        self._assignment: Dict[int, int] = {}
        self._load: List[int] = [0] * n_shards

    def shard_of(self, user_id: int, model: TrafficModel) -> int:
        """The shard owning this user's session (affine: stable for the
        router's lifetime and across identically-configured routers,
        provided ``load``-policy lookups happen in a deterministic
        order — :meth:`build_table` assigns ids ascending)."""
        assigned = self._assignment.get(user_id)
        if assigned is not None:
            return assigned
        if self.policy == "hash":
            shard = stable_hash64(self.seed, "route", user_id) % self.n_shards
        else:  # least expected load, ties to the lowest shard id
            shard = min(range(self.n_shards), key=lambda s: (self._load[s], s))
        self._assignment[user_id] = shard
        self._load[shard] += model.request_count(user_id)
        return shard

    def build_table(self, model: TrafficModel) -> Dict[int, List[int]]:
        """Route the whole population; ``{shard_id: [user ids]}`` with
        every shard present (possibly empty)."""
        table: Dict[int, List[int]] = {s: [] for s in range(self.n_shards)}
        for user_id in range(model.n_users):
            table[self.shard_of(user_id, model)].append(user_id)
        return table

    def expected_load(self) -> List[int]:
        """Requests routed to each shard so far (what ``load`` balances)."""
        return list(self._load)
