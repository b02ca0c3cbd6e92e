"""The benchmark's traffic mixes: hosted graph, protocol, storage, requests.

Every workload shares one load shape (see :mod:`perfbench.loadgen`): a
closed loop from a single generator thread, 16 requests in flight, two
equal-weight tenants submitted alternately.  What differs is the hosted
object graph, the concurrency-control protocol, the storage backend and
the request programs, each chosen to load a different layer.

Request programs are generated here from the run's seed only; the service
receives nothing but the generated ``ops`` lists.  The hosted graph and the
executor seed are fixed per workload (``Workload.graph_seed``), so two
seeds differ only in their traffic.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.fuzz.generator import GeneratorProfile
from repro.service.client import generate_ops
from repro.service.service import ServiceConfig

#: requests in flight: 2x the default ``batch_max``, so every batch is full
WINDOW = 2 * ServiceConfig.batch_max
TENANTS = ("alpha", "beta")

#: 40 objects over 3 layers, 256 keys, no Definition 5 self or up calls
SPARSE_PROFILE = GeneratorProfile(
    n_objects=40,
    n_layers=3,
    key_space=256,
    p_self_call=0.0,
    p_up_call=0.0,
)


def _send(rng: random.Random, oid: str, catalog: dict) -> list:
    method = rng.choice(catalog[oid]["methods"])
    return ["send", oid, method, rng.randrange(256), rng.randint(1, 3)]


def sparse_traffic(rng: random.Random, catalog: dict, n: int) -> list:
    """1-3 sends per request, objects and methods uniform, keys uniform
    over 256, no work ops."""
    oids = sorted(catalog)
    return [
        [_send(rng, rng.choice(oids), catalog) for _ in range(rng.randint(1, 3))]
        for _ in range(n)
    ]


def grouped_sparse_traffic(rng: random.Random, catalog: dict, n: int) -> list:
    """:func:`sparse_traffic` over a grouped graph, with the generator's
    default cross-group rate: request ``i`` has home group ``i mod
    groups`` and each send leaves it with probability
    ``GeneratorProfile.p_cross_group``."""
    groups: dict[int, list[str]] = {}
    for oid in sorted(catalog):
        groups.setdefault(int(re.search(r"G(\d+)", oid).group(1)), []).append(oid)
    p_cross = GeneratorProfile().p_cross_group
    requests = []
    for i in range(n):
        home = i % len(groups)
        ops = []
        for _ in range(rng.randint(1, 3)):
            group = home
            if rng.random() < p_cross:
                group = rng.randrange(len(groups) - 1)
                group += group >= home
            ops.append(_send(rng, rng.choice(groups[group]), catalog))
        requests.append(ops)
    return requests


def load_traffic(rng: random.Random, catalog: dict, n: int) -> list:
    """The ``repro load`` request shape: :func:`generate_ops`, 8 keys,
    work ticks."""
    return [generate_ops(rng, catalog) for _ in range(n)]


@dataclass(frozen=True)
class Workload:
    """One traffic mix (its rationale is the ``why`` in BENCHMARK.json)."""

    name: str
    protocol: str
    #: requests per trial; fixed, because certification and shard edge
    #: analysis cost grow with committed history.  A multiple of 32, so the
    #: last quarter is a whole number of 8-request batches.
    requests: int
    traffic: object
    profile: GeneratorProfile | None = None
    #: seed of the hosted object graph and of the executor (not the traffic)
    graph_seed: int = 0
    #: buffer-pool frames of the durable data dir; None = in-memory
    frames: int | None = None
    shards: int = 1
    #: what the traced run must show for the workload to match its purpose
    expect: dict = field(default_factory=dict)

    @property
    def durable(self) -> bool:
        return self.frames is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-durable",
            protocol="page-2pl",
            requests=192,
            traffic=sparse_traffic,
            profile=SPARSE_PROFILE,
            frames=16,
            expect={
                "certify.fast_share": "== 1",
                "bufferpool.evictions_per_commit": "> 0",
            },
        ),
        Workload(
            name="hot-oo",
            protocol="open-nested-oo",
            requests=64,
            traffic=load_traffic,
            graph_seed=1,
            frames=256,
            expect={
                "certify.fast_share": "< 1",
                "bufferpool.hit_rate": "== 1",
                "locking.waits_per_commit": "> 0",
            },
        ),
        Workload(
            name="sharded-sparse",
            protocol="page-2pl",
            requests=32,
            traffic=grouped_sparse_traffic,
            profile=SPARSE_PROFILE.grouped(2),
            shards=2,
            expect={"shard.distributed_share": "> 0"},
        ),
    )
}


def trial_inputs(workload: Workload, catalog: dict, seed: int, trial: int) -> list:
    """The (tenant, ops) requests of one trial, from ``(seed, trial)`` only."""
    rng = random.Random(f"{workload.name}:{seed}:{trial}")
    requests = workload.traffic(rng, catalog, workload.requests)
    return [(TENANTS[i % len(TENANTS)], ops) for i, ops in enumerate(requests)]
