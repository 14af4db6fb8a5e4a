"""Unit tests of perfbench's metric arithmetic.

Run from the root of a checkout:  python3 -m unittest discover perfbench
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reduce  # noqa: E402


def raw_run(**overrides):
    """A minimal raw measurement of two untraced + two traced passes."""
    raw = {
        "setup_s": [0.9, 1.1, 1.0],
        "setup_layers": {"store.write_s": 1.5, "core.oracle_s": 0.6},
        "pass_s": [2.0, 2.2],
        "traced_pass_s": [2.0, 2.4],
        "layers": {},
        "peak_rss_mb": 12.5,
        "miss_pct_alloc1024": 3.25,
        "concurrency": 1,
    }
    raw.update(overrides)
    return raw


class QuantileTest(unittest.TestCase):
    def test_nearest_rank_on_known_samples(self):
        samples = list(range(1000, 0, -1))  # order must not matter
        self.assertEqual(reduce.quantile(samples, 0.5), (500, 1000, 500))
        self.assertEqual(reduce.quantile(samples, 0.99), (990, 1000, 10))

    def test_value_is_an_observed_sample(self):
        self.assertEqual(reduce.quantile([3.0] * 5 + [7.0] * 15, 0.5)[0],
                         7.0)

    def test_requires_ten_samples_beyond(self):
        reduce.quantile(range(100), 0.9)  # rank 90, 10 beyond
        with self.assertRaises(reduce.TooFewSamples):
            reduce.quantile(range(99), 0.9)
        with self.assertRaises(reduce.TooFewSamples):
            reduce.quantile(range(999), 0.99)

    def test_rejects_degenerate_q(self):
        for q in (0.0, 1.0):
            with self.assertRaises(ValueError):
                reduce.quantile(range(100), q)


class ShareTest(unittest.TestCase):
    def test_idle_fraction(self):
        self.assertAlmostEqual(reduce.idle_fraction(300.0, 400.0), 0.25)
        self.assertEqual(reduce.idle_fraction(0.0, 0.0), 0.0)

    def test_unaccounted_share(self):
        self.assertAlmostEqual(reduce.unaccounted_share(9.0, 10.0), 0.1)
        self.assertAlmostEqual(
            reduce.unaccounted_share(18.0, 10.0, concurrency=2), 0.1)
        self.assertEqual(reduce.unaccounted_share(1.0, 0.0), 0.0)


class ReduceTest(unittest.TestCase):
    def test_end_to_end_setup_median_and_mean_pass(self):
        metrics = reduce.end_to_end(raw_run(pass_s=[2.0, 2.2, 2.9]))
        self.assertEqual(set(metrics), set(reduce.END_TO_END))
        self.assertEqual(metrics["setup_s"], (1.0, "s"))
        self.assertAlmostEqual(metrics["wall_s"][0], 7.1 / 3)
        self.assertEqual(metrics["peak_rss_mb"], (12.5, "MiB"))

    def test_per_layer_reconciles_spans_against_wall(self):
        # Two traced passes of 2.0 and 2.4 s; spans cover 3.96 of 4.4.
        raw = raw_run(layers={"profile.sharded_s": 3.0,
                              "core.ws_extract_s": 0.96,
                              "profile.shard_sum_ms": 4800.0,
                              "exec.capacity_ms": 6400.0,
                              "profile.stitch_scanned": 50.0,
                              "profile.stitch_base": 200.0})
        metrics = reduce.per_layer(raw)
        self.assertEqual(set(metrics), set(reduce.PER_LAYER))
        self.assertAlmostEqual(metrics["bench.unaccounted_frac"][0], 0.1)
        self.assertAlmostEqual(metrics["exec.idle_frac"][0], 0.25)
        self.assertAlmostEqual(
            metrics["profile.stitch_scanned_frac"][0], 0.25)
        self.assertAlmostEqual(metrics["profile.sharded_s"][0], 1.5)
        self.assertAlmostEqual(metrics["bench.trace_overhead_s"][0], 0.1)
        self.assertAlmostEqual(metrics["store.write_s"][0], 0.5)
        self.assertEqual(metrics["serve.ingest_p99_ms"][0], 0.0)

    def test_per_layer_serve_busy_over_client_time(self):
        raw = raw_run(concurrency=2,
                      layers={"serve.append_busy_s": 6.0,
                              "serve.snapshot_busy_s": 1.2,
                              "serve.records": 3e6},
                      append_ms=[float(i) for i in range(1, 1001)],
                      snapshot_ms=[float(i) for i in range(1, 101)])
        metrics = reduce.per_layer(raw)
        # 3.6 s busy per pass against 2 clients x 2.2 s.
        self.assertAlmostEqual(metrics["bench.unaccounted_frac"][0],
                               1 - 3.6 / 4.4)
        self.assertAlmostEqual(metrics["serve.ingest_mrec_s"][0], 0.5)
        # 1000 samples over two untraced and two traced passes.
        self.assertEqual(metrics["serve.append_n"][0], 250)
        self.assertEqual(metrics["serve.snapshot_n"][0], 25)
        self.assertEqual(metrics["serve.ingest_p99_ms"][0], 990.0)
        self.assertEqual(metrics["serve.snapshot_p90_ms"][0], 90.0)


if __name__ == "__main__":
    unittest.main()
