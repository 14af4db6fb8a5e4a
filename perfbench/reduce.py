"""Reduce the raw measurements of one perfbench run to named metrics.

The measurement binary prints sums, counts and raw samples; every
derived number (medians, exact quantiles, rates, idle and unaccounted
shares) is computed here, so the arithmetic has one home and one set
of unit tests (test_reduce.py).
"""

import math
import statistics

# No quantile is reported unless at least this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A quantile was asked of fewer samples than MIN_BEYOND allows."""


def quantile(samples, q):
    """Exact nearest-rank quantile of raw samples.

    Returns (value, count, beyond): the smallest sample with at least a
    share q of the samples at or below it, the sample count, and how
    many samples lie strictly beyond that rank.  Raises TooFewSamples
    when fewer than MIN_BEYOND samples lie beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile needs 0 < q < 1")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it")
    return sorted(samples)[rank - 1], n, beyond


def ratio(numerator, denominator):
    """numerator / denominator, 0 when there is no denominator."""
    return numerator / denominator if denominator else 0.0


def idle_fraction(busy_ms, capacity_ms):
    """Share of the pool's capacity (threads x engine wall) left idle."""
    return 1.0 - ratio(busy_ms, capacity_ms) if capacity_ms else 0.0


def unaccounted_share(span_s, wall_s, concurrency=1):
    """Share of the timed region no layer span covers.

    With several closed-loop clients the region offers concurrency x
    wall seconds of client time, and spans are summed over clients.
    """
    return 1.0 - ratio(span_s, concurrency * wall_s) if wall_s else 0.0


# End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "miss_pct_alloc1024": "%",
}


def end_to_end(raw):
    """Untraced metrics: {name: (value, unit)}.

    wall_s is the mean timed pass, i.e. the run's summed timed region
    over its pass count; setup_s is the median set-up repetition.
    """
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.mean(raw["pass_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "miss_pct_alloc1024": raw["miss_pct_alloc1024"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


# Per-layer metrics: name -> unit.  Every workload reports all of them;
# a layer the workload does not call reads 0.
PER_LAYER = {
    "store.write_s": "s",
    "core.oracle_s": "s",
    "store.open_s": "s",
    "trace.stats_s": "s",
    "profile.interleave_s": "s",
    "profile.interleave_mrec_s": "Mrec/s",
    "profile.pair_increments": "count",
    "profile.finish_s": "s",
    "profile.graph_nodes": "count",
    "profile.graph_edges": "count",
    "core.allocate_s": "s",
    "core.shared_nodes": "count",
    "sim.replay_s": "s",
    "sim.lane_mrec_s": "Mrec/s",
    "profile.sharded_s": "s",
    "profile.shard_max_ms": "ms",
    "profile.shard_sum_ms": "ms",
    "profile.merge_ms": "ms",
    "profile.stitch_ms": "ms",
    "profile.stitch_scanned_frac": "ratio",
    "exec.idle_frac": "ratio",
    "profile.prune_s": "s",
    "core.ws_extract_s": "s",
    "core.working_sets": "count",
    "serve.append_n": "count",
    "serve.append_busy_s": "s",
    "serve.ingest_mrec_s": "Mrec/s",
    "serve.ingest_p50_ms": "ms",
    "serve.ingest_p99_ms": "ms",
    "serve.snapshot_n": "count",
    "serve.snapshot_busy_s": "s",
    "serve.snapshot_mb": "MiB",
    "serve.snapshot_p50_ms": "ms",
    "serve.snapshot_p90_ms": "ms",
    "serve.finish_n": "count",
    "serve.failed_n": "count",
    "serve.phase_events": "count",
    "bench.unaccounted_frac": "ratio",
    "bench.trace_overhead_s": "s",
}


# Client-side latency quantiles of serve_stream: name -> (samples, q).
QUANTILES = {
    "serve.ingest_p50_ms": ("append_ms", 0.5),
    "serve.ingest_p99_ms": ("append_ms", 0.99),
    "serve.snapshot_p50_ms": ("snapshot_ms", 0.5),
    "serve.snapshot_p90_ms": ("snapshot_ms", 0.9),
}


def per_layer(raw):
    """Traced metrics: {name: (value, unit)}.

    Time and count sums of the timed region are averaged per traced
    pass, set-up sums per set-up repetition; rates and shares are
    formed from the summed numerators and denominators.
    """
    traced = len(raw["traced_pass_s"])
    layers = {k: v / traced for k, v in raw["layers"].items()}
    setup = {k: v / len(raw["setup_s"])
             for k, v in raw["setup_layers"].items()}
    get = lambda name: layers.get(name, 0.0)

    values = {name: get(name) for name in PER_LAYER}
    values["store.write_s"] = setup.get("store.write_s", 0.0)
    values["core.oracle_s"] = setup.get("core.oracle_s", 0.0)
    values["profile.interleave_mrec_s"] = ratio(
        get("profile.filtered_records"), get("profile.interleave_s")) / 1e6
    values["sim.lane_mrec_s"] = ratio(
        get("sim.lane_records"), get("sim.replay_s")) / 1e6
    values["profile.stitch_scanned_frac"] = ratio(
        get("profile.stitch_scanned"), get("profile.stitch_base"))
    values["exec.idle_frac"] = idle_fraction(
        get("profile.shard_sum_ms"), get("exec.capacity_ms"))
    values["serve.ingest_mrec_s"] = ratio(
        get("serve.records"), get("serve.append_busy_s")) / 1e6
    values["serve.snapshot_mb"] = get("serve.snapshot_bytes") / 2**20

    # Latency samples come from every pass, traced or not; their counts
    # are reported per pass like every other per-layer count.
    passes = len(raw["pass_s"]) + traced
    values["serve.append_n"] = len(raw.get("append_ms", [])) / passes
    values["serve.snapshot_n"] = len(raw.get("snapshot_ms", [])) / passes
    for name, (key, q) in QUANTILES.items():
        samples = raw.get(key)
        values[name] = quantile(samples, q)[0] if samples else 0.0

    span_s = sum(v for k, v in layers.items() if k.endswith("_s"))
    wall_s = statistics.mean(raw["traced_pass_s"])
    values["bench.unaccounted_frac"] = unaccounted_share(
        span_s, wall_s, raw.get("concurrency", 1))
    values["bench.trace_overhead_s"] = wall_s - statistics.mean(raw["pass_s"])
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
