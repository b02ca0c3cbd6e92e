"""Counter snapshots and the correctness gate, both outside the timed window.

The gate a trial must pass before any of its numbers count:

- ``service.audit()`` is ok: nothing admitted is left unsettled and every
  commit the service answered is in the executed history;
- ``service.certify()`` is clean (on a sharded service, the composed
  ``ShardGroup`` oracle);
- on a durable service, recovering the trial's crash image (the data dir
  copied after the last response) from its WAL and page images reproduces
  the live ``store_digest``.
"""

from __future__ import annotations

import os
import time

from repro.fuzz.generator import build_workload
from repro.oodb.database import ObjectDatabase
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import WriteAheadLog, recover, store_digest, verify_log

#: counts that must repeat exactly when the same inputs run again with one
#: generator thread; drift means batch composition depended on timing
EXACT_COUNT_KEYS = (
    "wal_records",
    "pool_hits",
    "pool_misses",
    "pool_evictions",
    "cert_fast",
    "cert_escalated",
    "attempts",
    "rounds",
)
QUIESCE_TIMEOUT_S = 60.0


def _schedulers(service) -> list:
    if service.executor is not None:
        return [service.db.scheduler]
    return [db.scheduler for db in service.db.dbs]


def quiesce_and_snapshot(service, commits: int) -> dict:
    """Wait until the engine has certified every commit, then read the
    counters each layer keeps."""
    metrics = service.db.metrics
    if service.executor is not None and service.config.online_certify:
        certified = metrics.counter("service_certified_total")
        deadline = time.monotonic() + QUIESCE_TIMEOUT_S
        while certified.value < commits:
            if time.monotonic() > deadline:
                raise RuntimeError("engine did not finish certifying")
            time.sleep(0.0005)
    schedulers = _schedulers(service)
    tables = [s.table for s in schedulers if hasattr(s, "table")]
    stats = {
        "batches": metrics.counter("service_batches_total").value,
        "batched_requests": metrics.histogram("service_batch_size").sum,
        "waits": sum(s.stats["waits"] for s in schedulers),
        "deadlocks": sum(s.stats["deadlocks"] for s in schedulers),
        "wait_ticks": sum(
            s.metrics.histogram("lock_wait_ticks").sum for s in schedulers
        ),
        "commute_hits": sum(t.commute_cache_hits for t in tables),
        "commute_misses": sum(t.commute_cache_misses for t in tables),
    }
    if service.executor is None:
        group = service.db
        coordinator = group.coordinator
        stats.update(
            ticks=group.now,
            rounds=coordinator.rounds,
            distributed=len(coordinator.multi),
            coordinator_aborts=coordinator.cycle_aborts
            + coordinator.deadlock_aborts
            + coordinator.crash_aborts,
        )
        return stats
    stats["ticks"] = service.executor.now
    cert = service.certification()
    if cert is not None:
        stats.update(cert_fast=cert.fast_commits, cert_escalated=cert.escalated_commits)
    wal = service.db.wal
    if wal is not None:
        stats.update(
            wal_records=wal.next_lsn,
            wal_syncs=metrics.counter("wal_syncs_total").value,
            wal_bytes=os.path.getsize(wal.path),
        )
    pool = getattr(service.db.store, "pool", None)
    if pool is not None:
        stats.update(
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            pool_evictions=pool.evictions,
            pool_writebacks=pool.writebacks,
            pool_frames=pool.capacity,
            pages=len(service.db.store.page_ids),
        )
    return stats


def exact_counts(stats: dict) -> dict:
    return {key: stats[key] for key in EXACT_COUNT_KEYS if key in stats}


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for path, _, names in os.walk(root)
        for name in names
    )


def recovered_digest(service, workload, image: str) -> str:
    """Recover a copy of the data dir the way ``repro recover --data-dir``
    does and digest the resulting page store."""
    wal = WriteAheadLog.load(os.path.join(image, "wal.jsonl"))
    verify_log(wal.records)
    store = FileBackedPageStore(image, frames=workload.frames)
    db = ObjectDatabase(page_capacity=4 * service.spec.key_space + 16)
    build_workload(db, service.spec)
    recover(wal, db, store=store)
    digest = store_digest(db.store)
    store.close()
    return digest


def check(service, workload, image: str | None) -> list[str]:
    """Run the gate on a stopped service; returns the failures."""
    violations = []
    audit = service.audit()
    if not audit["ok"]:
        violations.append(
            f"audit: {len(audit['unsettled'])} unsettled, "
            f"{len(audit['lost_commits'])} lost commits"
        )
    report = service.certify()
    if not report.oo_serializable:
        violations.append(f"certify: {report.description.splitlines()[-1]}")
    if image is not None:
        live = store_digest(service.db.store)
        recovered = recovered_digest(service, workload, image)
        if recovered != live:
            violations.append(
                f"recovery: digest {recovered[:12]} != live {live[:12]}"
            )
    return violations
