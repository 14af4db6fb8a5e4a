#!/usr/bin/env python3
"""Build and run one perfbench workload, and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig3_serial --seed 1 \\
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) under $CARGO_TARGET_DIR, default .bench_build.  The
measurement binary prints raw sums and samples; reduce.py turns them
into the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--record-expected rewrites perfbench/expected/<workload>.json from the
default seed's outputs; fig3_serial and table2_sharded compare every
pass against that file when run with the default seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reduce  # noqa: E402

WORKLOADS = ("fig3_serial", "table2_sharded", "serve_stream")

# Outputs committed in expected/ are for this seed.
DEFAULT_SEED = 1
# Later speed claims must also hold on this seed, not used in tuning.
HELD_OUT_SEED = 1017


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then bring the binary up to date."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def measure(binary, args):
    expected = os.path.join(HERE, "expected", args.workload + ".json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--work-dir=" + os.path.join(os.path.dirname(build_dir()),
                                        "work", args.workload)]
    if not args.record_expected and args.seed == DEFAULT_SEED and \
            os.path.exists(expected):
        cmd.append("--expected=" + expected)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited {proc.returncode}")
    raw = json.loads(lines[-1])
    if args.record_expected:
        if "outputs" not in raw:
            sys.exit(f"perfbench: {args.workload} checks against oracles, "
                     "not a file")
        os.makedirs(os.path.dirname(expected), exist_ok=True)
        with open(expected, "w") as out:
            out.write(json.dumps(raw["outputs"], indent=2) + "\n")
    return raw


def show(raw, metrics, trace):
    """Human-readable summary ahead of the JSON line."""
    print(f"{raw['workload']}: {len(raw['pass_s'])} untraced + "
          f"{len(raw['traced_pass_s'])} traced passes, "
          f"{raw['attempted']} operations, {raw['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, (key, q) in reduce.QUANTILES.items():
        if raw.get(key):
            value, n, beyond = reduce.quantile(raw[key], q)
            print(f"  {name:28s} {value:14.6g} ms  "
                  f"({n} samples, {beyond} beyond)")
    if trace:
        print(f"  timed region not covered by spans: "
              f"{metrics['bench.unaccounted_frac'][0]:.2%}")
        print(f"  tracing overhead (traced - untraced wall_s): "
              f"{metrics['bench.trace_overhead_s'][0]:+.6f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.record_expected and args.seed != DEFAULT_SEED:
        parser.error("--record-expected needs the default seed")

    raw = measure(build(), args)
    metrics = (reduce.per_layer(raw) if args.trace
               else reduce.end_to_end(raw))
    show(raw, metrics, args.trace)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
