#!/usr/bin/env python3
"""colline's benchmark: one seeded workload, timed, checked against ground truth.

    python3 bench/run.py --workload lines-linear --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; colline is imported from ``src/`` beside this
directory and from nowhere else. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` first runs half the time untraced, then replays exactly the same
items with spans around colline's public functions and prints the per-layer
metrics, including the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object. A JSON dump of every run
(trace tables included) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import MODULES, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

SETUP_REPEATS = 15
# the scalar checks run in no workload; they are traced but not reported
LAYER_SPANS = [name for name in SPANS if "scalar_" not in name]
LAYER_COUNTS = {
    "dsl.parse.bytes": "bytes",
    "zoo.eval.distinct_ratio": "ratio",
    "predicates.probes": "count",
    "predicates.skipped": "count",
    "predicates.probe_yield": "ratio",
    "serialize.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def load_colline(root: str) -> SimpleNamespace:
    """Import colline from ``root/src`` afresh (earlier imports are dropped)."""
    src = os.path.join(root, "src")
    for name in [n for n in sys.modules if n == "colline" or n.startswith("colline.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"colline.{m}") for m in MODULES})
    if not os.path.abspath(lib.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"colline was imported from {lib.cli.__file__}, not from {src}")
    return lib


def reference_kernel():
    """Fixed pure-Python exact arithmetic, the same kind of work colline does."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 13 - 6, i % 11 + 1) * Fraction(i % 5 + 1, 7)
    return acc


class HostSpeed:
    """Times the reference kernel now and then, to rescale nearby timings.

    The 2-core host this was sized on runs the same code up to 1.8× slower
    for seconds at a time (neighbours share the machine). Timing the fixed
    kernel next to every item and multiplying the item's time by
    REFERENCE_KERNEL_S / (kernel time then) cancels that: in a 60 s sizing
    run, per-item spread fell from 54 % to 8 % (interquartile range over the
    median). Every reported time is thus in milliseconds at the host speed
    at which the kernel takes REFERENCE_KERNEL_S; the raw times are kept in
    the run's dump.
    """

    REFERENCE_KERNEL_S = 0.0007
    EVERY_S = 0.05

    def __init__(self):
        self.ends = []
        self.times = []

    def probe(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Rescaling for an interval: the two kernel runs before it and the two after."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, end)
        near = self.times[max(0, before - 2):before] + self.times[after:after + 2]
        return self.REFERENCE_KERNEL_S / statistics.median(near)


def set_up(name: str, seed: int, root: str, speed: HostSpeed):
    """Import, generate and warm up SETUP_REPEATS times; keep the last.

    Returns the workload, its pool and the rescaled set-up times."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        gc.collect()  # else collecting the last repeat's modules and pool lands inside this one
        speed.probe()
        start = time.perf_counter()
        lib = load_colline(root)
        workload = WORKLOADS[name](lib, seed, root)
        items = workload.setup()
        workload.warmup()
        end = time.perf_counter()
        speed.probe()
        times.append((end - start) * speed.factor(start, end))
    return workload, items, times


@dataclass
class Sample:
    index: int  # position in the pool
    raw_s: float
    scaled_s: float
    result: Result


def measure(workload, items, seconds=None, count=None, tracer=None):
    """Run items in pool order until ``seconds`` pass or ``count`` items ran.

    Returns the samples and the digest of one pass over the pool (None when
    the pool was not finished). Verification runs after each item, outside
    the timed call and with tracing paused.
    """
    speed = HostSpeed()
    timed = []
    digest = hashlib.sha256()
    gc.collect()
    deadline = time.perf_counter() + seconds if seconds is not None else float("inf")
    limit = count if count is not None else float("inf")
    i = 0
    speed.probe()
    with workload.active():
        while i < limit and time.perf_counter() < deadline:
            item = items[i % len(items)]
            if tracer is not None:
                tracer.begin_item(i)
                tracer.on = True
            error = None
            start = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # an item that raises is a failed item
                error = exc
            end = time.perf_counter()
            if tracer is not None:
                tracer.on = False
                tracer.end_item()
            if error is None:
                try:
                    result = workload.verify(item, out)
                except Exception as exc:  # so is one whose output cannot be read
                    error = exc
            if error is not None:
                result = Result(0, False, ("raised", type(error).__name__, str(error)))
            if i < len(items):
                digest.update(repr(result.record).encode())
            result.record = None  # report bytes would otherwise pile up in memory
            timed.append((i % len(items), start, end, result))
            speed.maybe_probe()
            i += 1
    speed.probe()
    samples = [Sample(index, end - start, (end - start) * speed.factor(start, end), result)
               for index, start, end, result in timed]
    return samples, digest.hexdigest() if i >= len(items) else None


def one_pass(name: str, seed: int, tracer: Tracer = None):
    """Set up once and run every pool item once, traced when a tracer is given.

    Returns (samples, digest, items); used by the self-checks and shares.py."""
    workload = WORKLOADS[name](load_colline(ROOT), seed, ROOT)
    try:
        items = workload.setup()
        if tracer is not None:
            tracer.install(workload.lib)
        try:
            samples, digest = measure(workload, items, count=len(items), tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        workload.close()
    return samples, digest, items


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(samples, setup_times) -> dict:
    times = [s.scaled_s for s in samples]
    total = sum(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(times) / total, "1/s"),
        "item_ms_p50": (statistics.median(times) * 1000, "ms"),
        "item_ms_p90": (p90(times) * 1000, "ms"),
        "probes_per_s": (sum(s.result.probes for s in samples) / total, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    metrics = {}
    spans = tracer.per_span()
    for name in LAYER_SPANS:
        row = spans[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
        metrics[f"{name}.us_per_call"] = (row["us_per_call"], "us")
    seen = tracer.probes + tracer.skipped
    values = {
        "dsl.parse.bytes": tracer.parse_bytes,
        "zoo.eval.distinct_ratio": tracer.distinct_count / tracer.evals if tracer.evals else 0.0,
        "predicates.probes": tracer.probes,
        "predicates.skipped": tracer.skipped,
        "predicates.probe_yield": tracer.probes / seen if seen else 0.0,
        "serialize.report_bytes": sum(s.result.report_bytes for s in traced),
        # same items in both phases: 1 − traced/untraced items per second
        "trace.overhead_frac": 1 - (sum(s.scaled_s for s in untraced)
                                    / sum(s.scaled_s for s in traced)),
    }
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (values[name], unit)
    return metrics


def summarize(samples, defect_results):
    """Failed timed items, reproduced defects, and whether all is correct.

    The defect items are not timed and not attempted operations: each must
    either pass or fail in exactly the documented way (see WORKLOADS.md)."""
    failed = sum(not s.result.ok for s in samples)
    reproduced = sum(r.known_defect for r in defect_results)
    correct = failed == 0 and all(r.ok or r.known_defect for r in defect_results)
    return failed, reproduced, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workload, items, setup_times = set_up(args.workload, args.seed, ROOT, HostSpeed())
    except (ImportError, OSError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            # the traced phase replays the untraced items, capped in time
            untraced, _ = measure(workload, items, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install(workload.lib)
            try:
                traced, digest = measure(workload, items, seconds=args.seconds,
                                         count=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            samples = untraced + traced
            metrics = per_layer(tracer, traced, untraced[:len(traced)])
            dump = {"trace": tracer.dump()}
        else:
            samples, digest = measure(workload, items, seconds=args.seconds)
            metrics = end_to_end(samples, setup_times)
            dump = {}
        defect_results = workload.reproduce_defects()
    finally:
        workload.close()

    failed, reproduced, correct = summarize(samples, defect_results)
    raw_ms = [s.raw_s * 1000 for s in samples]
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}:"
        f" {len(samples)} items over a pool of {len(items)};"
        f" failed {failed}, failed_frac {failed / len(samples):.4f}",
        f"  set-up times, rescaled (median reported):"
        f" {', '.join(f'{t:.4f}' for t in setup_times)} s",
        f"  percentiles over {len(samples)} item times; unscaled item_ms_p50"
        f" {statistics.median(raw_ms):.4f} ms, p90 {p90(raw_ms):.4f} ms",
    ]
    extra = {}
    revalidate = [s.result.revalidate_s * s.scaled_s / s.raw_s
                  for s in samples if s.result.revalidate_s is not None]
    if revalidate:
        extra = {"revalidate_ms_p50": statistics.median(revalidate) * 1000,
                 "revalidate_ms_p90": p90(revalidate) * 1000,
                 "revalidate_samples": len(revalidate)}
        lines.append(
            f"  revalidate_ms_p50 {extra['revalidate_ms_p50']:.4f} ms,"
            f" revalidate_ms_p90 {extra['revalidate_ms_p90']:.4f} ms"
            f" over {len(revalidate)} reports (rescaled)")
    if defect_results:
        lines.append(
            f"  known defect (untimed, outside the pool): {reproduced} of {len(defect_results)}"
            f" reports written by certify on a non-linear map fail --revalidate")
    lines.append(f"  digest of one pool pass: {digest or 'incomplete (pool not finished)'}")
    if args.trace:
        for module, share in dump["trace"]["module_shares"].items():
            lines.append(f"  module {module:<10} self share {share['self_share']:.4f}"
                         f" calls {share['calls']}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} {value:.6g} {unit}")
    print("\n".join(lines))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    dump.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, items=len(samples), pool=len(items),
                failed=failed, known_defect=[reproduced, len(defect_results)], digest=digest,
                setup_times=setup_times, metrics=metrics, raw_item_ms=raw_ms,
                scaled_item_ms=[s.scaled_s * 1000 for s in samples], **extra)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh, indent=1, default=list)

    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
