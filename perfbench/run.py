"""End-to-end benchmark of the multi-tenant transaction service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse-durable --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload, each in its own process (so each
reports its own peak RSS), and exits non-zero if any of them failed.

One run builds the service from ``src/``, runs one untimed warm-up trial,
then timed trials of the workload (trial ``k`` replays the inputs made from
``(seed, k)``) until ``--seconds`` have passed, at least ``MIN_TRIALS``
times.  Every trial passes the correctness gate (:mod:`perfbench.gates`)
outside its timed window; a failing gate exits 1 without printing numbers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced trials on the same inputs and prints the per-layer
metrics, including the tracing overhead; its spans are written to
``.perfbench-out/<workload>.spans.jsonl.gz``.  Either way the last stdout
line is one JSON object, and ``.perfbench-out/<workload>-seed<N>-trace<T>.json``
keeps the full record (seed, percentile used, sample counts, per-trial
exact counts and whether they repeated).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: a run measures at least this many timed trials, however long they take
MIN_TRIALS = 4
#: extra idle-service set-ups per run, so setup_s is a median of many
SETUP_REPEATS = 8


class GateFailure(Exception):
    pass


def as_json(metrics: dict) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import loadgen, report
    from perfbench.tracing import Tracer, layer_summary
    from perfbench.workloads import WORKLOADS, trial_inputs

    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        )
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = loadgen.fresh_dir(os.path.join(ROOT, ".perfbench-work", workload.name))
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)

    def inputs_for(k):
        return lambda catalog: trial_inputs(workload, catalog, args.seed, k)

    def trial(k, tracer=None):
        result = loadgen.run_trial(workload, inputs_for(k), work_dir, tracer)
        if result.violations:
            raise GateFailure(f"trial {k}: " + "; ".join(result.violations))
        return result

    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()
    deadline = origin + args.seconds
    try:
        warm_up = trial(0)
        untraced, traced, summaries = [], [], []
        first = time.perf_counter()
        while True:
            k = len(untraced)
            untraced.append(trial(k))
            if tracer is not None:
                traced.append(trial(k, tracer))
                tracer.add_generator_spans(traced[-1])
                summaries.append(layer_summary(tracer.trial_spans(tracer.trial)))
            now = time.perf_counter()
            # Start another trial only if it should end before the deadline.
            per_trial = (now - first) / len(untraced)
            if len(untraced) >= MIN_TRIALS and now + per_trial > deadline:
                break
        setups = [t.setup_s for t in untraced + traced]
        setups += [
            loadgen.measure_setup(workload, work_dir) for _ in range(SETUP_REPEATS)
        ]
    except GateFailure as exc:
        print(
            f"perfbench: correctness gate failed on {workload.name}: {exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    pairs = [(warm_up, untraced[0])] + list(zip(untraced, traced))
    repeated = [a.counts == b.counts for a, b in pairs]
    tail_q = report.tail_percentile(MIN_TRIALS * workload.requests)
    metrics, notes = report.end_to_end(untraced, setups, tail_q)
    record = {"end_to_end": as_json(metrics)}
    purpose = {}
    if tracer is not None:
        repeat_share = sum(repeated) / len(repeated)
        metrics = report.per_layer(traced, untraced, summaries, repeat_share)
        purpose = report.purpose_check(workload.expect, metrics)
        record["per_layer"] = as_json(metrics)
        tracer.write(os.path.join(out_dir, f"{workload.name}.spans.jsonl.gz"), origin)
    measured = untraced + traced
    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "trials": len(untraced),
        "requests_per_trial": workload.requests,
        "sizes": {
            key: untraced[0].stats[key]
            for key in ("pages", "pool_frames")
            if key in untraced[0].stats
        },
        "traced_trials": len(traced),
        **notes,
        "exact_counts": [t.counts for t in untraced],
        "exact_counts_traced": [t.counts for t in traced],
        # warm-up vs trial 0, then each untraced/traced pair
        "counts_repeated": repeated,
        "purpose_check": purpose,
    })
    record_name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, record_name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(untraced)} trials x {workload.requests} requests"
        + (f" (+{len(traced)} traced)" if traced else "")
    )
    print(
        f"latency tail = p{notes['latency_tail_percentile']} over "
        f"{notes['latency_samples']} samples "
        f"({notes['latency_samples_beyond_tail']} beyond it)"
    )
    print(
        f"exact counts repeated: {all(repeated)} "
        f"({sum(repeated)}/{len(repeated)} pairs)"
    )
    for check, ok in purpose.items():
        print(f"purpose check {check}: {'ok' if ok else 'NOT MET'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(t.requests for t in measured),
                "failed": sum(t.failed for t in measured),
                "metrics": as_json(metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
