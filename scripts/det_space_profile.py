#!/usr/bin/env python3
"""Deterministic matcher footprint as the pattern period grows.

Peak live words should track sigma + rho, not the pattern length; the
shift budget stays at 2 per arrival throughout.  Run from the repo root,
either after `pip install -e .` or straight from a checkout:

    PYTHONPATH=src python3 scripts/det_space_profile.py --rhos 1 10 100
"""

import argparse
import random

from parmatch.det_matcher import DetMatcher
from parmatch.oracle import naive_pperiod
from parmatch.pattern import build_profile


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=int, default=4)
    ap.add_argument("--rhos", type=int, nargs="+", default=[1, 10, 100, 1000])
    ap.add_argument("--seed", type=int, default=505)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print(f"{'rho':>6} {'m':>7} {'peak_words':>10} {'C_fit':>6} {'max_shifts':>10}")
    for target in args.rhos:
        if target == 1:
            pattern = [0] * 4000
        else:
            block = [rng.randrange(args.sigma) for _ in range(target)]
            pattern = [block[j % target] for j in range(4 * target)]
        rho = naive_pperiod(pattern)
        m = len(pattern)
        text = [rng.randrange(args.sigma) for _ in range(6 * m)]
        text[m : 2 * m] = pattern
        dm = DetMatcher(build_profile(pattern, args.sigma))
        peak = 0
        shifts = 0
        for sym in text:
            dm.step(sym)
            shifts = max(shifts, dm.core.shifts_last)
            peak = max(peak, dm.live_words())
        print(f"{rho:>6} {m:>7} {peak:>10} {peak / (args.sigma + rho):>6.1f} "
              f"{shifts:>10}")


if __name__ == "__main__":
    main()
