"""Turn a run's trials into the end-to-end and per-layer metrics."""

from __future__ import annotations

import resource
import statistics

from repro.service.service import ServiceConfig

from perfbench.tracing import LAYERS

#: tail percentiles, highest first, with the sample count each needs to
#: have at least 10 samples beyond it
TAIL_PERCENTILES = ((99, 1000), (95, 200), (90, 100))


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(guaranteed_samples: int) -> int:
    """The highest tail percentile with at least 10 samples beyond it,
    chosen from the sample count every run of the workload is guaranteed
    to reach, so the choice does not change from run to run."""
    for q, needed in TAIL_PERCENTILES:
        if guaranteed_samples >= needed:
            return q
    return TAIL_PERCENTILES[-1][0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(trials, key: str) -> float:
    return sum(t.stats.get(key, 0) for t in trials)


def _rate(trials, num: str, den: str) -> float:
    return sum(getattr(t, num) for t in trials) / sum(getattr(t, den) for t in trials)


def end_to_end(trials: list, setups: list, tail_q: int) -> tuple[dict, dict]:
    """The end-to-end metrics, plus notes on how the tail was taken."""
    latencies = [x for t in trials for x in t.latencies_ms]
    tail_ms = percentile(latencies, tail_q)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "commits_per_s": (_rate(trials, "commits", "wall_s"), "1/s"),
        "tail_commits_per_s": (_rate(trials, "tail_commits", "tail_wall_s"), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "commit_share": (_rate(trials, "commits", "submissions"), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "latency_tail_percentile": tail_q,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": sum(1 for x in latencies if x > tail_ms),
    }
    return metrics, notes


def per_layer(
    traced: list, untraced: list, summaries: list, repeat_share: float
) -> dict:
    """The per-layer metrics of a traced run (``summaries`` are the
    :func:`layer_summary` of each traced trial)."""
    commits = sum(t.commits for t in traced)
    count: dict = {}
    total: dict = {}
    self_s: dict = {}
    layer_self: dict = {}
    durations: dict = {"service.submit": [], "service.queue": []}
    for summary in summaries:
        for target, source in (
            (count, summary["count"]),
            (total, summary["total_s"]),
            (self_s, summary["self_s"]),
            (layer_self, summary["layer_self_s"]),
        ):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
        for key, values in summary["durations"].items():
            durations[key].extend(values)

    def stat(key: str) -> float:
        return _sum(traced, key)

    def per_commit(key: str) -> float:
        return _ratio(stat(key), commits)

    def share(key: str, other: str) -> float:
        return _ratio(stat(key), stat(key) + stat(other))

    def mean_ms(name: str) -> float:
        return _ratio(total.get(name, 0.0), count.get(name, 0)) * 1e3

    def total_ms_per(name: str, den: float) -> float:
        return _ratio(total.get(name, 0.0), den) * 1e3

    def median_of(name: str, scale: float) -> float:
        values = durations[name]
        return statistics.median(values) * scale if values else 0.0

    batch_slots = stat("batches") * ServiceConfig.batch_max
    shard_batches = count.get("shard.batch", 0)
    handoffs = count.get("runtime.checkpoint", 0) + count.get("runtime.wait", 0)
    requests = count.get("locking.request", 0)
    traced_cps = _rate(traced, "commits", "wall_s")
    untraced_cps = _rate(untraced, "commits", "wall_s")
    submissions = sum(t.submissions for t in traced)
    metrics = {
        "service.queue_wait_ms": (median_of("service.queue", 1e3), "ms"),
        "service.batch_fill": (_ratio(stat("batched_requests"), batch_slots), "ratio"),
        "service.submit_us": (median_of("service.submit", 1e6), "us"),
        "runtime.batch_ms": (mean_ms("runtime.batch"), "ms"),
        "runtime.handoffs_per_commit": (_ratio(handoffs, commits), "count"),
        "runtime.ticks_per_commit": (per_commit("ticks"), "ticks"),
        "runtime.attempts_per_commit": (per_commit("attempts"), "count"),
        "locking.request_us": (
            _ratio(self_s.get("locking.request", 0.0), requests) * 1e6,
            "us",
        ),
        "locking.waits_per_commit": (per_commit("waits"), "count"),
        "locking.wait_ticks_per_commit": (per_commit("wait_ticks"), "ticks"),
        "locking.deadlocks": (_ratio(stat("deadlocks"), len(traced)), "count"),
        "locking.commute_cache_hit_rate": (
            share("commute_hits", "commute_misses"),
            "ratio",
        ),
        "certify.observe_ms_per_commit": (
            total_ms_per("certify.observe", commits),
            "ms",
        ),
        "certify.fast_share": (share("cert_fast", "cert_escalated"), "ratio"),
        "oodb.commit_ms": (mean_ms("oodb.commit"), "ms"),
        "oodb.sends_per_commit": (_ratio(count.get("oodb.send", 0), commits), "count"),
        "oodb.checkpoint_ms": (mean_ms("oodb.checkpoint"), "ms"),
        "wal.syncs_per_commit": (per_commit("wal_syncs"), "count"),
        "wal.records_per_commit": (per_commit("wal_records"), "count"),
        "wal.bytes_per_commit": (per_commit("wal_bytes"), "B"),
        "wal.sync_ms_per_commit": (total_ms_per("wal.sync", commits), "ms"),
        "bufferpool.hit_rate": (share("pool_hits", "pool_misses"), "ratio"),
        "bufferpool.evictions_per_commit": (per_commit("pool_evictions"), "count"),
        "bufferpool.writebacks_per_commit": (per_commit("pool_writebacks"), "count"),
        "storage.disk_bytes_per_commit": (per_commit("disk_bytes"), "B"),
        "shard.batch_ms": (mean_ms("shard.batch"), "ms"),
        "shard.edge_analysis_ms_per_batch": (
            total_ms_per("shard.edge_analysis", shard_batches),
            "ms",
        ),
        "shard.rounds_per_batch": (_ratio(stat("rounds"), shard_batches), "count"),
        "shard.distributed_share": (_ratio(stat("distributed"), submissions), "ratio"),
        "shard.coordinator_aborts": (
            _ratio(stat("coordinator_aborts"), len(traced)),
            "count",
        ),
        "trace.traced_commits_per_s": (traced_cps, "1/s"),
        "trace.untraced_commits_per_s": (untraced_cps, "1/s"),
        "trace.overhead_share": (1.0 - traced_cps / untraced_cps, "ratio"),
        "repeat.exact_share": (repeat_share, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_commit"] = (
            _ratio(layer_self.get(layer, 0.0), commits) * 1e3,
            "ms",
        )
    return metrics


def purpose_check(expect: dict, metrics: dict) -> dict:
    """Evaluate a workload's ``expect`` conditions (``"> 0"``, ``"== 1"``,
    ...) against its per-layer metrics."""
    compare = {
        "==": lambda a, b: a == b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
    }
    out = {}
    for name, condition in expect.items():
        op, bound = condition.split()
        out[f"{name} {condition}"] = compare[op](metrics[name][0], float(bound))
    return out

