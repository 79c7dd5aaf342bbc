"""Turn a workload :class:`~perfbench.workloads.Outcome` into metrics.

End-to-end metrics come from an untraced run.  Their timings are scaled
to the reference host speed (:mod:`perfbench.hostspeed`); the summary
prints the unscaled medians beside them.  Per-layer metrics come
from a traced run made of two halves on fresh systems: the first half
untraced, the second traced with ``repro.obs`` collecting; the ratio of
their headline figures is the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from perfbench import hostspeed, workloads
from perfbench.tracing import Tracer

#: Setup builds per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 3

SELF_TIME_ROWS = (
    "dsp.onset", "dsp.outliers", "dsp.filters", "dsp.normalize", "frontend",
    "extractor", "scoring", "gallery.best_match", "gallery.sync",
    "gallery.mutation", "stream.filter", "stream.onset", "stream.push",
)


#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile_ms(values, q: float) -> float:
    if not values:
        raise ValueError("no samples for a percentile")
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


def tail_percentile(n: int) -> float:
    """99, or the highest percentile with ``TAIL_SAMPLES`` samples beyond
    it when a run holds fewer than 1000 samples."""
    return min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / n))


def tail_ms(values) -> float:
    """A tail value (``*_p99_ms``): see :func:`tail_percentile`."""
    return percentile_ms(values, tail_percentile(len(values)))


#: Added to ``error_rate`` so that a clean run reads a fixed non-zero
#: value and any failure is a large relative increase.
ERROR_RATE_FLOOR = 1e-6


def error_rate(outcome) -> float:
    """Failed ÷ attempted, plus :data:`ERROR_RATE_FLOOR`."""
    return outcome.failed / outcome.attempted + ERROR_RATE_FLOOR


def scaled_busy_s(out) -> float:
    """Seconds of measured work at the reference speed; serve-open's
    rate windows are wall time of an open-loop schedule."""
    return sum(out.speed.scaled(out.busy)) if out.busy else out.busy_s


def end_to_end(out) -> dict:
    """Every end-to-end metric; see NOTES.md for per-workload meanings."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = out.speed.scaled(zip(out.latency_at, out.latencies_s))
    mutations = out.speed.scaled(zip(out.mutation_at, out.mutations_s))
    busy_s = scaled_busy_s(out)
    throughput = out.completed / busy_s if out.busy else out.throughput_rps
    return {
        "setup_s": (statistics.median(out.setup_s) * out.speed.run_scale(), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "error_rate": (error_rate(out), "ratio"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "throughput_rps": (throughput, "1/s"),
        "mutation_p50_ms": (percentile_ms(mutations, 50), "ms"),
        "stream_samples_per_s": (out.samples / busy_s, "1/s"),
    }


def headline_s(name: str, out) -> float:
    """Seconds per unit of work at the reference speed, for the
    tracing-overhead ratio."""
    if name == "stream":
        return scaled_busy_s(out) / max(out.samples, 1)
    return float(np.mean(out.speed.scaled(zip(out.latency_at, out.latencies_s))))


def per_layer(name: str, out, untraced, tracer: Tracer) -> dict:
    rows = dict(out.background)
    rows.update(out.rows)
    metrics = {
        f"{row}.self_ms": (rows.get(row, 0.0), "ms/1k_samples" if row.startswith("stream.") else "ms")
        for row in SELF_TIME_ROWS
    }

    def counter(prefix: str) -> float:
        return sum(v for k, v in out.counters.items() if k.startswith(prefix))

    embed = out.histograms.get('batch_size{op="embed"}', {"sum": 0.0})
    failures = counter("failures_total")
    preprocessed = embed["sum"]
    metrics["dsp.refused_fraction"] = (failures / preprocessed if preprocessed else 0.0, "ratio")
    extracted, calls = out.extra.get("extractor_rows", (0, 0))
    metrics["extractor.rows_per_call"] = (extracted / calls if calls else 0.0, "rows")
    pool = out.histograms.get("gallery_rerank_pool")
    alive = out.extra.get("mean_alive", 0.0)
    fraction = pool["sum"] / pool["count"] / alive if pool and pool["count"] and alive else 0.0
    metrics["gallery.rerank_fraction"] = (fraction, "ratio")
    metrics["gallery.compactions"] = (counter("gallery_compactions_total"), "count")
    waits = out.extra.get("queue_wait_s", [])
    metrics["serve.queue_wait_p50_ms"] = (percentile_ms(waits, 50) if waits else 0.0, "ms")
    metrics["serve.queue_wait_p99_ms"] = (tail_ms(waits) if waits else 0.0, "ms")
    sizes = out.extra.get("batch_occupancy", [])
    metrics["serve.batch_occupancy"] = (float(np.mean(sizes)) if sizes else 0.0, "requests")
    busy = sum(span.duration for span, _ in tracer.batches)
    wall = out.extra.get("wall_s", 0.0)
    metrics["serve.worker_busy_fraction"] = (busy / wall if wall else 0.0, "ratio")
    metrics["unattributed_ms"] = (rows.get("unattributed", 0.0), "ms")
    metrics["trace_overhead"] = (headline_s(name, out) / headline_s(name, untraced) - 1.0, "ratio")
    return metrics


def run(name: str, ctx, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    if not trace:
        out = workload(ctx, seconds, None, SETUP_REPS)
        metrics = end_to_end(out)
    else:
        untraced = workload(ctx, seconds / 2, None, 1)
        tracer = Tracer()
        tracer.install()
        try:
            out = workload(ctx, seconds / 2, tracer, 1)
        finally:
            tracer.uninstall()
        metrics = per_layer(name, out, untraced, tracer)
        print_table(name, out)
        out.failed += untraced.failed
        out.attempted += untraced.attempted
    print_summary(name, out)
    return {
        "correct": out.failed == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def print_summary(name: str, out) -> None:
    print(f"workload {name}: attempted {out.attempted}, failed {out.failed}")
    print(f"  gate: {out.gate}")
    kernel = out.speed.seconds
    print(f"  host-speed kernel: {len(kernel)} samples, median"
          f" {statistics.median(kernel) * 1e3:.3f} ms, range {min(kernel) * 1e3:.3f}"
          f"-{max(kernel) * 1e3:.3f} ms (reference {hostspeed.REFERENCE_S * 1e3:.3f} ms)")
    unscaled = [("setup_s", statistics.median(out.setup_s), "s")]
    for label, values in (("latency_p50", out.latencies_s), ("mutation_p50", out.mutations_s)):
        if values:
            unscaled.append((label, percentile_ms(values, 50), "ms"))
    print("  unscaled: " + ", ".join(f"{k} {v:.4f} {u}" for k, v, u in unscaled))
    for label, values in (("latency", out.latencies_s), ("mutation", out.mutations_s),
                          ("high-rate", out.high_latencies_s)):
        if values:
            print(f"  {label}: {len(values)} samples, tail is p{tail_percentile(len(values)):.1f}")
    print(f"  setup builds: {len(out.setup_s)}")
    for key in ("ladder", "mutations", "emms", "emm_not_one_decision"):
        if key in out.extra:
            print(f"  {key}: {out.extra[key]}")
    # Tails are printed, not metrics: their run-to-run spread on the
    # reference host comes near the largest allowed bound (NOTES.md).
    for label, values, at in (("latency", out.latencies_s, out.latency_at),
                              ("mutation", out.mutations_s, out.mutation_at)):
        if values:
            scaled = out.speed.scaled(zip(at, values))
            print(f"  {label} tail (not a metric): {tail_ms(scaled):.3f} ms")
    if out.high_latencies_s:
        print(f"  high rate: p50 {percentile_ms(out.high_latencies_s, 50):.3f} ms,"
              f" tail {tail_ms(out.high_latencies_s):.3f} ms;"
              f" max rate {out.max_rate_rps} req/s")
    if "lateness_s" in out.extra:
        late = out.extra["lateness_s"]
        print(f"  generator lateness p50 {percentile_ms(late, 50):.3f} ms,"
              f" p99 {percentile_ms(late, 99):.3f} ms, max {max(late) * 1e3:.3f} ms")
    for error in out.errors:
        print(f"  FAILED: {error}")


def print_table(name: str, out) -> None:
    """Per-layer self time; rows plus ``unattributed`` sum to the total."""
    unit = f"ms per {out.per_unit}"
    print(f"per-layer table ({name}, {unit}, {out.extra.get('requests_traced', 0)} traced):")
    for row, value in sorted(out.rows.items(), key=lambda kv: -kv[1]):
        print(f"  {row:<24} {value:10.4f}")
    print(f"  {'= total':<24} {out.total_ms:10.4f}  (rows sum {sum(out.rows.values()):.4f})")
    if out.background:
        print("  background (serving worker, ms per decision):")
        for row, value in sorted(out.background.items(), key=lambda kv: -kv[1]):
            print(f"    {row:<22} {value:10.4f}")
