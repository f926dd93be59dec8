"""Seeded benchmark for gridseal: aggregation rounds, the record store, scenario replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload records_small --seed 1 --seconds 30 --trace 0

With --trace 0 it times the workload untraced for about --seconds and
prints the end-to-end metrics; with --trace 1 it runs a fixed amount of work twice, untraced and
then traced, and prints the per-layer metrics from the spans. Lines before
the last describe the run for people; the last line is one JSON object with
the keys correct, attempted, failed and metrics. Result and span files go to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from layers import COUNT_METRICS, OP_SPANS, SPANS
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SLOWDOWN_CAP = 5
WARMUP_S = 0.5
GC_EVERY_S = 0.5


def _import_program() -> None:
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "gridseal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridseal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gridseal

    if Path(gridseal.__file__).resolve().parent != SRC / "gridseal":
        raise SystemExit(f"perfbench: gridseal imported from {gridseal.__file__}, not {SRC}")


def environment(args) -> dict:
    from cryptography import __version__ as cryptography_version

    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "cryptography": cryptography_version,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def timed_setup(workload):
    """Set up `setup_repeats` times with derived seeds; keep the first state.

    Untimed set-ups run first for WARMUP_S: a fresh process pays one-time
    costs, and a CPU that idled before the run takes a moment to reach speed.
    """
    warm_until = perf_counter() + WARMUP_S
    repeat = workload.setup_repeats
    while perf_counter() < warm_until:
        workload.setup(NullTracer(), repeat)
        repeat += 1
    times, state = [], None
    for repeat in range(workload.setup_repeats):
        started = perf_counter()
        built = workload.setup(NullTracer(), repeat)
        times.append(perf_counter() - started)
        if repeat == 0:
            state = built
    return state, times


def run_blocks(workload, state, tracer, tally, seconds, blocks=None) -> None:
    """Run whole blocks for about `seconds`.

    Without `blocks`, run as many as fit: another block starts only while one
    more of the mean length so far still ends within `seconds`, so a run's
    length does not grow when the machine is slow. With `blocks`, run exactly
    that many, so a traced run of a seed repeats its counts; stop early only
    if the program has become so slow that the run would overstay its time by
    far (counted as failed).
    """
    started = perf_counter()
    # Collect garbage between blocks, at most every GC_EVERY_S, rather than
    # whenever allocation counts say so: a collection inside a timed call
    # walks the whole store the run has built, so where it lands would decide
    # which operation looks slow.
    gc.disable()
    collected = started
    index = 0
    try:
        while index != blocks:
            elapsed = perf_counter() - started
            if blocks is None and index and elapsed * (index + 1) / index > seconds:
                return
            if blocks is not None and elapsed > SLOWDOWN_CAP * seconds:
                tally.fail(f"stopped after {index} of {blocks} blocks: "
                           f"over {SLOWDOWN_CAP}x --seconds")
                tally.attempted += 1
                return
            if perf_counter() - collected > GC_EVERY_S:
                gc.collect()
                collected = perf_counter()
            workload.run_block(state, index, tracer, tally)
            index += 1
    finally:
        gc.enable()


def end_to_end(workload, tally, setup_times) -> dict:
    """Means over the whole run: on a shared machine whose speed wanders for
    seconds at a time, a long average moves less between runs than a median
    of short blocks, whose mix of operations varies from block to block."""
    latencies, per_s = workload.headline(tally)
    return {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "latency_ms": {"value": statistics.fmean(latencies) if latencies else 0.0,
                           "unit": "ms"},
            "work_per_s": {"value": per_s, "unit": "1/s"}}


def per_layer(workload, untraced, traced, tracer) -> dict:
    stats = tracer.layer_stats()
    metrics = {}
    for name in SPANS + OP_SPANS:
        entry = stats.get(name, {"calls": 0, "self_ms": 0.0, "p50_ms": 0.0})
        metrics[f"{name}.calls"] = {"value": entry["calls"], "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": entry["self_ms"], "unit": "ms"}
        metrics[f"{name}.p50_ms"] = {"value": entry["p50_ms"], "unit": "ms"}
    for name, (unit, _, compute) in COUNT_METRICS.items():
        metrics[name] = {"value": compute(traced), "unit": unit}
    plain, _ = workload.headline(untraced)
    seen, _ = workload.headline(traced)
    overhead = statistics.median(seen) - statistics.median(plain) if plain and seen else 0.0
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * overhead / statistics.median(plain) if plain else 0.0, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from workloads import Tally, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    state, setup_times = timed_setup(workload)
    # Park what set-up built in the permanent generation, so garbage
    # collection during the run walks only what the run itself creates.
    gc.collect()
    gc.freeze()
    untraced = Tally()
    if args.trace:
        # Half the run untraced, then the same blocks again traced.
        half = args.seconds / 2
        blocks = workload.blocks_for(half)
        run_blocks(workload, state, NullTracer(), untraced, half, blocks)
        tracer = Tracer()
        state = workload.setup(tracer, 0)
        traced = Tally()
        run_blocks(workload, state, tracer, traced, half, blocks)
        metrics = per_layer(workload, untraced, traced, tracer)
        tallies = (untraced, traced)
    else:
        run_blocks(workload, state, NullTracer(), untraced, args.seconds)
        metrics = end_to_end(workload, untraced, setup_times)
        tallies = (untraced,)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    named = [{"name": "setup_s", "value": statistics.median(setup_times), "unit": "s",
              "n": len(setup_times)},
             {"name": "fail_ratio", "value": failed / attempted if attempted else 1.0,
              "unit": "ratio", "n": attempted}]
    named += workload.named_metrics(untraced)
    for entry in named:
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{workload.name} {entry['name']} = {value} {entry['unit']} (n={entry['n']})")
    if args.trace:
        print(f"{workload.name} children of {workload.op_name}: "
              + json.dumps({k: round(v, 3) for k, v in sorted(
                  tracer.child_totals(workload.op_name).items(), key=lambda kv: -kv[1])}))
    for tally in tallies:
        for message in tally.failures:
            print(f"failure: {message}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, "named": named, "metrics": metrics,
                   "setup_s": setup_times, "attempted": attempted, "failed": failed,
                   "failures": [m for t in tallies for m in t.failures]}, handle, indent=1)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
