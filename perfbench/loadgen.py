"""One closed-loop trial against an in-process ``TransactionService``.

Load shape: a single generator thread keeps ``WINDOW`` requests in flight
through ``TransactionService.submit_async``, alternating two equal-weight
tenants.  The first window is submitted before the engine starts, so the
first batch is full; every later submission replaces a request the
service has answered.  A request the service gave up on (deadline,
restart budget, coordinator abort) is resubmitted by its client, up to
``CLIENT_RETRIES`` times, as transaction clients do; rejections and
invalid requests are final.

Responses are stamped when the service resolves them, not when the
generator reads them: the service's pending-response type is replaced, for
the duration of the trial, by a subclass whose ``resolve`` records the time
and hands the response to the generator's completion queue.

After the last response, outside the timed window, the trial snapshots the
counters each layer keeps, stops the service and runs the correctness
gates (:mod:`perfbench.gates`).
"""

from __future__ import annotations

import os
import queue
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.service.service as service_module
from repro.service.admission import TenantQuota
from repro.service.service import ServiceConfig, TransactionService

from perfbench import gates
from perfbench.workloads import TENANTS, WINDOW, Workload

#: resubmissions of a request the service gave up on
CLIENT_RETRIES = 3
#: per-tenant quota: the whole window may sit in one tenant's queue, so
#: admission never sheds (any rejection is still counted as a failure)
QUOTA = TenantQuota(max_inflight=WINDOW, max_queue_depth=WINDOW)
#: a response slower than this fails the run instead of hanging it
RESPONSE_TIMEOUT_S = 120.0


@dataclass
class Trial:
    setup_s: float
    wall_s: float
    requests: int
    submissions: int
    commits: int
    failed: int
    latencies_ms: list
    tail_commits: int
    tail_wall_s: float
    #: counters read from each layer after the last response
    stats: dict
    #: the counts that must repeat exactly for identical inputs
    counts: dict
    #: correctness-gate failures (empty = clean)
    violations: list
    #: per submission: (request index, submit start, submit end, label),
    #: the generator-side spans of a traced trial
    submits: list = field(default_factory=list)


@contextmanager
def stamped_responses(completions: queue.SimpleQueue):
    """Stamp every response at resolve time and queue it for the generator."""
    base = service_module._Pending

    class StampedPending(base):
        __slots__ = ("resolved_at", "request")

        def resolve(self, response: dict) -> None:
            self.resolved_at = time.perf_counter()
            super().resolve(response)
            completions.put(self)

    service_module._Pending = StampedPending
    try:
        yield
    finally:
        service_module._Pending = base


def build_service(workload: Workload, data_dir: str | None) -> TransactionService:
    config = ServiceConfig(
        protocol=workload.protocol,
        seed=workload.graph_seed,
        data_dir=data_dir,
        frames=workload.frames or ServiceConfig.frames,
        shards=workload.shards,
    )
    return TransactionService(
        config,
        quotas={tenant: QUOTA for tenant in TENANTS},
        profile=workload.profile,
    )


def fresh_dir(path: str) -> str:
    if os.path.exists(path):
        shutil.rmtree(path)
    return path


def run_trial(
    workload: Workload,
    inputs_for,
    work_dir: str,
    tracer=None,
) -> Trial:
    """Run one trial of ``workload``; ``inputs_for(catalog)`` makes its
    requests."""
    data_dir = (
        fresh_dir(os.path.join(work_dir, "data")) if workload.durable else None
    )
    t0 = time.perf_counter()
    service = build_service(workload, data_dir)
    construct_s = time.perf_counter() - t0
    inputs = inputs_for(service.catalog())
    n = len(inputs)
    completions: queue.SimpleQueue = queue.SimpleQueue()
    first_submit = [0.0] * n
    retries = [0] * n
    submits: list = []
    outcomes: list = []  # (resolve time, request index, status)
    latencies: list = []
    attempts = 0
    failed = 0
    inflight = 0
    next_request = 0
    if tracer is not None:
        tracer.attach(service)
    with stamped_responses(completions):

        def submit(i: int) -> bool:
            tenant, ops = inputs[i]
            start = time.perf_counter()
            rejected, pending = service.submit_async(tenant, ops)
            end = time.perf_counter()
            if not first_submit[i]:
                first_submit[i] = start
            if rejected is not None:
                outcomes.append((end, i, rejected["status"]))
                return False
            pending.request = i
            submits.append([i, start, end, pending])
            return True

        def top_up() -> None:
            nonlocal inflight, next_request, failed
            while inflight < WINDOW and next_request < n:
                if submit(next_request):
                    inflight += 1
                else:
                    failed += 1
                next_request += 1

        top_up()
        t1 = time.perf_counter()
        service.start()
        start_s = time.perf_counter() - t1
        while inflight:
            try:
                pending = completions.get(timeout=RESPONSE_TIMEOUT_S)
            except queue.Empty:
                raise RuntimeError(
                    f"{workload.name}: no response within {RESPONSE_TIMEOUT_S}s"
                ) from None
            inflight -= 1
            response = pending.response
            status = response["status"]
            attempts += response.get("attempts", 0)
            i = pending.request
            if status == "gave_up" and retries[i] < CLIENT_RETRIES:
                retries[i] += 1
                if submit(i):
                    inflight += 1
                else:
                    failed += 1
                    top_up()
                continue
            outcomes.append((pending.resolved_at, i, status))
            if status == "committed":
                latencies.append((pending.resolved_at - first_submit[i]) * 1e3)
            else:
                failed += 1
            top_up()
    stats = gates.quiesce_and_snapshot(service, len(latencies))
    stats["attempts"] = attempts
    if tracer is not None:
        tracer.detach()
    image = None
    if data_dir is not None:
        # A crash image: the data dir exactly as a power cut after the
        # last response would leave it (synced log prefix, evicted pages).
        image = shutil.copytree(
            data_dir, fresh_dir(os.path.join(work_dir, "image"))
        )
    service.stop()
    if data_dir is not None:
        stats["disk_bytes"] = gates.dir_bytes(data_dir)
    violations = gates.check(service, workload, image)
    outcomes.sort()
    q = 3 * n // 4
    tail = outcomes[q:]
    commits = len(latencies)
    return Trial(
        setup_s=construct_s + start_s,
        wall_s=outcomes[-1][0] - first_submit[0],
        requests=n,
        submissions=len(submits),
        commits=commits,
        failed=failed,
        latencies_ms=latencies,
        tail_commits=sum(1 for _, _, status in tail if status == "committed"),
        tail_wall_s=outcomes[-1][0] - outcomes[q - 1][0],
        stats=stats,
        counts=gates.exact_counts(stats),
        violations=violations,
        submits=[
            (i, start, end, p.response.get("label"))
            for i, start, end, p in submits
        ],
    )


def measure_setup(workload: Workload, work_dir: str) -> float:
    """Construct and start an idle service, then stop it; returns the
    construct+start seconds."""
    data_dir = (
        fresh_dir(os.path.join(work_dir, "data")) if workload.durable else None
    )
    t0 = time.perf_counter()
    service = build_service(workload, data_dir)
    service.start()
    elapsed = time.perf_counter() - t0
    service.stop()
    return elapsed
