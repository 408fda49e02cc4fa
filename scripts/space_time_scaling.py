#!/usr/bin/env python3
"""Space/time scaling of the randomized matcher across pattern sizes.

For each size: the constructor's wall time (preprocessing included),
peak live words (expected ~C * sigma * log2 m), the enforced per-arrival
op ceiling, the observed per-arrival max (`-` for a size that routes to
the deterministic engine, which counts no ops), and throughput.  Run
from the repo root, either after `pip install -e .` or straight from a
checkout:

    PYTHONPATH=src python3 scripts/space_time_scaling.py --logm 16 20
"""

import argparse
import time

from parmatch.gen import planted_instance
from parmatch.stream_matcher import OP_BUDGET, StreamMatcher


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=int, default=4)
    ap.add_argument("--logm", type=int, nargs="+", default=[12, 14, 16, 18, 20])
    ap.add_argument("--seed", type=int, default=777)
    args = ap.parse_args()

    print(f"{'m':>9} {'mode':>5} {'setup_s':>7} {'peak_words':>10} {'C_fit':>6} "
          f"{'op_ceiling':>10} {'ops_max':>7} {'Msym/s':>7}")
    for logm in args.logm:
        m = 1 << logm
        delta = args.sigma * logm
        n = 2 * m + 32 * delta
        inst = planted_instance(m, n, args.sigma, seed=args.seed, plants=2)
        t0 = time.perf_counter()
        sm = StreamMatcher(inst.pattern, args.sigma, seed=55)
        setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        sm.scan(inst.text)
        el = time.perf_counter() - t0
        peak = sm.live_words_peak()
        ops_max = sm.max_ops() if sm.mode == "rand" else "-"
        print(f"{m:>9} {sm.mode:>5} {setup:>7.3f} {peak:>10} {peak / delta:>6.1f} "
              f"{OP_BUDGET:>10} {ops_max:>7} {n / el / 1e6:>7.2f}")


if __name__ == "__main__":
    main()
