#!/usr/bin/env python3
"""parmatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; parmatch is imported from its
`src/` directory.  The inputs are generated from --seed, every match list
is checked against `parmatch.oracle.naive_all_matches` (computed once,
outside every timed region), and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Human-readable lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_parmatch():
    if not (SRC / "parmatch" / "__init__.py").is_file():
        print(f"parmatch sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import parmatch

    if Path(parmatch.__file__).resolve().parent != SRC / "parmatch":
        print(f"imported parmatch from {parmatch.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return parmatch


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    parmatch = _import_parmatch()
    import numpy

    import e2e
    import layers
    from inputs import WORKLOADS
    from parmatch.oracle import naive_all_matches
    from timing import gate_self_check

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    t0 = perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    m, n = len(wl.pattern), len(wl.text)
    expected = naive_all_matches(wl.pattern, wl.text)
    if not args.trace:
        # The tracemalloc pass ends before any timed pass starts.
        memory = e2e.memory_pass(e2e.engine_factory(wl))
    gate_self_check(expected, n - m + 1)
    log(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} parmatch={parmatch.__version__}")
    log(f"workload {wl.name} seed={args.seed} fingerprint_seed={wl.fp_seed} "
        f"params={json.dumps(wl.params, sort_keys=True)}")
    log(f"why: {wl.why}")
    log(f"oracle: {len(expected)} matches; gate self-check ok; inputs, oracle "
        f"and memory pass took {perf_counter() - t0:.2f} s before any timing")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            tally, metrics = layers.run(wl, expected, workdir, log)
        else:
            tally, metrics = e2e.run(wl, expected, memory, args.seconds, workdir, log)

    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    log(f"fail_rate = {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} arrivals)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
