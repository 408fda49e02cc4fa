"""Per-layer split from one traced run.

Each layer is measured from outside: its public functions are timed
(preprocessing stages, constructors, replays of `LastOccurrence.step`,
`DetCore.step_pred`, `DetMatcher.step`, `AlphabetFilter.step` and
`cli.main` over the run's own symbols) and the counters the engine
objects already expose are read after every arrival of a traced pass.
The traced pass is compared with an untraced pass over the same loop to
give the tracing overhead.  Metrics of a layer the workload does not
reach read 0, with a base count of 0 next to them.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

from parmatch import stream_matcher
from parmatch.alphabet_filter import AlphabetFilter
from parmatch.det_matcher import _IDLE, DetCore, DetMatcher
from parmatch.fingerprint import context_new
from parmatch.pattern import (
    build_compressed_pred,
    build_ladder,
    build_profile,
    compute_prefix_pperiods,
)
from parmatch.predecessor import LastOccurrence, pred_string

from e2e import (
    CHUNK,
    Tally,
    cli_inputs,
    cli_match,
    engine_args,
    engine_factory,
    latency_samples,
)
from timing import quantile, ref_time, speed_factor, timed

# name -> unit; every traced run reports all of them.
PER_LAYER = {
    "pattern.periods_s": "s",
    "pattern.pred_s": "s",
    "pattern.compressed_s": "s",
    "pattern.ladder_s": "s",
    "pattern.profile_s": "s",
    "matcher.init_s": "s",
    "ladder.levels": "count",
    "phaseA.detcore_ns": "ns",
    "phaseA.fast_path_ratio": "ratio",
    "phaseA.shifts_mean": "count",
    "phaseA.pend_peak": "count",
    "rand.arrivals": "count",
    "rand.ops_mean": "ops",
    "rand.ops_max": "ops",
    "base.ns": "ns",
    "bdelta.pushes": "count",
    "bdelta.pushes_per_karrival": "1/karrival",
    "bdelta.b_peak": "count",
    "zeroing.fill_max": "count",
    "bphi.checks": "count",
    "bphi.pass_ratio": "ratio",
    "phaseC.tails": "count",
    "phaseC.rejections": "count",
    "mq.pushes": "count",
    "mq.segments_peak": "count",
    "mq.words_peak": "words",
    "mq.law_mismatches": "count",
    "det.arrivals": "count",
    "det.step_ns": "ns",
    "det.fast_path_ratio": "ratio",
    "det.shifts_mean": "count",
    "det.units_mean": "count",
    "det.pend_peak": "count",
    "filter.arrivals": "count",
    "filter.step_ns": "ns",
    "filter.evictions_per_karrival": "1/karrival",
    "filter.expiries_per_karrival": "1/karrival",
    "cli.wall_s": "s",
    "cli.parse_s": "s",
    "latency.p99_us": "us",
    "latency.samples": "count",
    "trace.arrivals": "count",
    "trace.overhead_ratio": "ratio",
    "host.speed": "ratio",
}


def _chunks(n):
    for a in range(0, n, CHUNK):
        yield a, min(a + CHUNK, n)


def _replay(step, seq):
    for x in seq:
        step(x)


def _replay_indexed(step, seq):
    for i, x in enumerate(seq):
        step(x, i)


def _per_arrival_ns(fn, *args) -> float:
    gc.collect()
    _, secs = timed(fn, *args)
    return secs * 1e9 / len(args[-1])


def _split_constructor(build):
    """Build a matcher; return it with the normalised seconds of its outer
    `build_profile` call and of the rest of the constructor.

    The constructor's module-level `build_profile` is wrapped for the one
    call, so both spans come from the same construction.
    """
    spans = []

    def profile_span(*args, **kw):
        t0 = perf_counter()
        profile = build_profile(*args, **kw)
        spans.append(perf_counter() - t0)
        return profile

    stream_matcher.build_profile = profile_span
    try:
        r0 = ref_time()
        t0 = perf_counter()
        sm = build()
        total = perf_counter() - t0
        f = speed_factor((r0 + ref_time()) / 2)
    finally:
        stream_matcher.build_profile = build_profile
    # spans[0] is the pattern's profile; a later one is phase A's
    # sub-profile, which belongs to the rest of the constructor.
    return sm, spans[0] * f, (total - spans[0]) * f


def _untraced(step, text, fstep=None):
    """Plain per-arrival loop: (median normalised rate, match ends)."""
    rates, ends = [], []
    for a, b in _chunks(len(text)):
        f = speed_factor(ref_time())
        t0 = perf_counter()
        if fstep is None:
            for j in range(a, b):
                if step(text[j]):
                    ends.append(j)
        else:
            for j in range(a, b):
                if step(fstep(text[j])):
                    ends.append(j)
        rates.append((b - a) / ((perf_counter() - t0) * f))
    return median(rates), ends


def _traced_rand(sm, text, out):
    """The untraced loop plus counter reads after every arrival."""
    suba, mqs = sm.suba, sm.mq
    levels = range(len(mqs))
    last = [q.last_pos for q in mqs]
    level_pushes = [0] * len(mqs)
    sm.debug_checks = checks = []
    ops_sum = fast = shifts = pushes = segs_peak = words_peak = 0
    rates, ends = [], []
    step = sm.step
    for a, b in _chunks(len(text)):
        f = speed_factor(ref_time())
        t0 = perf_counter()
        for j in range(a, b):
            c0 = suba.consumed
            idle = suba.phase == _IDLE and not suba.pending
            if step(text[j]):
                ends.append(j)
            ops_sum += sm.ops_last
            sh = suba.shifts_last
            shifts += sh
            if idle and sh == 0 and suba.consumed == c0 + 1:
                fast += 1
            bb, bc = sm.bbuf, sm.bcur
            if (bb and bb[-1][0] == j) or (bc is not None and bc[0] == j):
                pushes += 1
            segs = 0
            for k in levels:
                q = mqs[k]
                if q.last_pos != last[k]:
                    last[k] = q.last_pos
                    level_pushes[k] += 1
                segs += len(q.segs)
            if segs > segs_peak:
                segs_peak = segs
            if sm.mq_words > words_peak:
                words_peak = sm.mq_words
        rates.append((b - a) / ((perf_counter() - t0) * f))

    n = len(text)
    passes = sum(1 for ell, _, acc in checks if acc == sm.level_fp[ell])
    s = sm.s
    tails = level_pushes[s] - len(mqs[s])
    out.update({
        "ladder.levels": s,
        "rand.arrivals": n,
        "rand.ops_mean": ops_sum / n,
        "rand.ops_max": sm.max_ops(),
        "phaseA.fast_path_ratio": fast / n,
        "phaseA.shifts_mean": shifts / n,
        "phaseA.pend_peak": suba.pend_peak,
        "bdelta.pushes": pushes,
        "bdelta.pushes_per_karrival": 1000 * pushes / n,
        "bdelta.b_peak": sm.b_peak,
        "zeroing.fill_max": sm.d_fill_max(),
        "bphi.checks": len(checks),
        "bphi.pass_ratio": passes / len(checks) if checks else 0,
        "phaseC.tails": tails,
        "phaseC.rejections": tails - len(ends) - (sm.c_ip >= 0),
        "mq.pushes": sum(level_pushes),
        "mq.segments_peak": segs_peak,
        "mq.words_peak": words_peak,
        "mq.law_mismatches": sum(q.law_mismatches for q in mqs),
    })
    return median(rates), ends


def _traced_cli(sm, filt, text, out):
    """Filter plus deterministic engine, with both layers' counters."""
    core = sm.det.core
    live, cap, window = filt.live, filt.cap, filt.window
    fstep, step = filt.step, sm.step
    fast = shifts = units = evictions = expiries = 0
    rates, ends = [], []
    for a, b in _chunks(len(text)):
        f = speed_factor(ref_time())
        t0 = perf_counter()
        for j in range(a, b):
            raw = text[j]
            expire = False
            if live:
                head, slot = next(iter(live.items()))
                expire = slot[0] <= filt.t + 1 - window
            present = raw in live and not (expire and raw == head)
            if expire:
                expiries += 1
            if not present and len(live) - expire >= cap:
                evictions += 1
            code = fstep(raw)
            c0 = core.consumed
            idle = core.phase == _IDLE and not core.pending
            if step(code):
                ends.append(j)
            sh = core.shifts_last
            shifts += sh
            units += core.units_last
            if idle and sh == 0 and core.consumed == c0 + 1:
                fast += 1
        rates.append((b - a) / ((perf_counter() - t0) * f))

    n = len(text)
    out.update({
        "det.arrivals": n,
        "det.fast_path_ratio": fast / n,
        "det.shifts_mean": shifts / n,
        "det.units_mean": units / n,
        "det.pend_peak": core.pend_peak,
        "filter.arrivals": n,
        "filter.evictions_per_karrival": 1000 * evictions / n,
        "filter.expiries_per_karrival": 1000 * expiries / n,
    })
    return median(rates), ends


def run(wl, expected, workdir, log):
    """All per-layer metrics for one workload; returns (tally, metrics)."""
    pattern, sigma = engine_args(wl)
    build = engine_factory(wl)
    m, n = len(wl.pattern), len(wl.text)
    tally = Tally(expected, m)
    out = dict.fromkeys(PER_LAYER, 0)
    speeds = [speed_factor(ref_time()) for _ in range(5)]

    # Pattern preprocessing, stage by stage, then the whole constructor.
    # Contexts built here are private to the stage they time.
    periods, out["pattern.periods_s"] = timed(compute_prefix_pperiods, pattern)
    pred, out["pattern.pred_s"] = timed(pred_string, pattern)
    _, out["pattern.compressed_s"] = timed(
        build_compressed_pred, pattern, periods[m], pred=pred)
    _, out["pattern.ladder_s"] = timed(
        build_ladder, pattern, sigma, context_new(61, wl.fp_seed),
        periods=periods, pred=pred)
    del periods, pred
    gc.collect()
    sm, out["pattern.profile_s"], out["matcher.init_s"] = _split_constructor(build)

    # Untraced and traced passes over the same per-arrival loop.
    mode = sm.mode
    if mode == "rand":
        untraced, ends = _untraced(sm.step, wl.text)
        tally.check([e - m + 1 for e in ends], n)
        sm = build()
        gc.collect()
        traced, ends = _traced_rand(sm, wl.text, out)
        m0 = sm.m0
    else:
        distinct = len(set(wl.pattern))
        untraced, ends = _untraced(sm.step, wl.text, AlphabetFilter(distinct, m).step)
        tally.check([e - m + 1 for e in ends], n)
        sm = build()
        gc.collect()
        traced, ends = _traced_cli(sm, AlphabetFilter(distinct, m), wl.text, out)
    tally.check([e - m + 1 for e in ends], n)
    out["trace.arrivals"] = n
    out["trace.overhead_ratio"] = untraced / traced
    del sm
    gc.collect()
    least = latency_samples(wl, build(), tally, log)
    out["latency.p99_us"] = quantile(least, 0.99) / 1000
    out["latency.samples"] = len(least)

    # Replays of single layers over this run's symbols.
    if wl.sigma is None:
        filt = AlphabetFilter(len(set(wl.pattern)), m)
        codes = [filt.step(x) for x in wl.text]
        out["filter.step_ns"] = _per_arrival_ns(
            _replay, AlphabetFilter(len(set(wl.pattern)), m).step, wl.text)
        out["det.step_ns"] = _per_arrival_ns(
            _replay, DetMatcher(build_profile(pattern, sigma)).step, codes)
        engine_ns = _per_arrival_ns(_replay, build().step, codes)
        gc.collect()
        code, starts, wall_s = cli_match(*cli_inputs(wl, workdir), wl.fp_seed, [], [])
        if code == 0:
            tally.check(starts, n)
        else:
            tally.check([], 0, lost=n)
        out["cli.wall_s"] = wall_s
        out["cli.parse_s"] = wall_s - (out["filter.step_ns"] + engine_ns) * n / 1e9
        symbols = codes
    else:
        symbols = wl.text
    tracker = LastOccurrence(sigma)
    out["base.ns"] = _per_arrival_ns(_replay_indexed, tracker.step, symbols)
    if mode == "rand":
        tracker = LastOccurrence(sigma)
        pvs = [tracker.step(x, i) for i, x in enumerate(symbols)]
        sub = build_profile(pattern[: m0 - 1], sigma)
        core = DetCore(sub, pend_cap=4 * (sigma + sub.rho) + 16)
        out["phaseA.detcore_ns"] = _per_arrival_ns(_replay, core.step_pred, pvs)

    speeds += [speed_factor(ref_time()) for _ in range(5)]
    out["host.speed"] = median(speeds)
    log(f"traced pass {traced:.0f} sym/s vs untraced {untraced:.0f} sym/s")
    return tally, {k: (v, PER_LAYER[k]) for k, v in out.items()}

