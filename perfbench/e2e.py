"""End-to-end passes: memory, set-up, throughput and per-arrival latency.

Load model: closed loop, one stream, one process, one thread; each symbol
is fed as soon as the previous call returns.  A throughput pass feeds the
whole text to a fresh matcher; the latency pass feeds the start of it to
copies of one, in rounds.  Every match list is checked against the oracle.
tracemalloc slows a scan about 20x, so it runs only in its own
construction pass, never next to a timed one.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import sys
import tracemalloc
from statistics import median
from time import perf_counter, perf_counter_ns

from parmatch import cli
from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch.errors import StructuralViolation
from parmatch.stream_matcher import StreamMatcher

from timing import gate, quantile, ref_time, speed_factor, timed

CHUNK = 16384  # arrivals per throughput chunk and per latency block
STRIDE = 8  # every STRIDE-th arrival of a latency pass is timed alone
LATENCY_BLOCKS = 6  # a latency round feeds the first 6 * CHUNK arrivals
LATENCY_MATCHERS = 7
TURN = 2048  # arrivals a latency matcher takes before the next one
MIN_SETUPS = 3
SETUP_BUDGET_S = 0.5
MAX_SETUPS = 100


def engine_args(wl):
    """Pattern and dense alphabet the engine sees (the CLI densifies)."""
    if wl.sigma is not None:
        return wl.pattern, wl.sigma
    dense, distinct = densify_pattern(wl.pattern)
    return dense, distinct + 1


def engine_factory(wl):
    pattern, sigma = engine_args(wl)
    # ctx stays None: every matcher owns its FieldContext.
    return lambda: StreamMatcher(pattern, sigma, seed=wl.fp_seed)


def arrivals_done(sm) -> int:
    return (sm.i if sm.det is None else sm.det.i) + 1


def memory_pass(build):
    """(bytes held after construction, peak bytes during it, pass seconds)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t0 = perf_counter()
        matcher = build()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        secs = perf_counter() - t0
        del matcher
    finally:
        tracemalloc.stop()
    return held - base, peak - base, secs


def throughput_pass(sm, text, rates, speeds) -> list[int]:
    """Feed text through `scan` chunk by chunk; returns match end indices.

    Appends each chunk's normalised rate to `rates` and its speed factor
    to `speeds`."""
    ends = []
    scan = sm.scan
    for a in range(0, len(text), CHUNK):
        piece = text[a : a + CHUNK]
        f = speed_factor(ref_time())
        t0 = perf_counter()
        got = scan(piece)
        dt = perf_counter() - t0
        rates.append(len(piece) / (dt * f))
        speeds.append(f)
        ends.extend(got)
    return ends


def latency_pass(steps, text, fsteps=None):
    """Time single calls on a fixed stride over the first LATENCY_BLOCKS
    blocks of the text, for several identical matchers that take turns of
    TURN arrivals.  With `fsteps`, each matcher has its own filter in
    front, and a timed call is the filter's step plus the matcher's.

    A reference loop runs before every round of turns; a block's times
    share the speed factor of the median of its rounds' loops.  Returns
    (match end indices per matcher, the least normalised time of each
    sampled call).  The engines are deterministic, so the k-th sampled
    call does the same work in every matcher, milliseconds apart: its
    least time drops a delay that another tenant of the host added to the
    others.
    """
    ends = [[] for _ in steps]
    least = []
    ns = perf_counter_ns
    n = min(len(text), LATENCY_BLOCKS * CHUNK)
    for a in range(0, n, CHUNK):
        refs = []
        block = [[] for _ in steps]
        for t in range(a, min(a + CHUNK, n), TURN):
            refs.append(ref_time())
            for k, step in enumerate(steps):
                fstep = fsteps[k] if fsteps else None
                found, lat = ends[k], block[k]
                for j in range(t, min(t + TURN, n)):
                    x = text[j]
                    if j % STRIDE:
                        hit = step(x if fstep is None else fstep(x))
                    else:
                        t0 = ns()
                        hit = step(x if fstep is None else fstep(x))
                        lat.append(ns() - t0)
                    if hit:
                        found.append(j)
        f = speed_factor(median(refs))
        least.extend(min(xs) * f for xs in zip(*block))
    return ends, least


class TimedStdin:
    """Text source for `parmatch match --text -`.

    The CLI reads 64 KiB at a time and processes every token of a read
    before the next one, so the time between two reads is the cost of the
    previous read's tokens.  A reference loop runs inside each read, where
    it adds to no interval.  `norm_s` sums the normalised intervals.
    """

    def __init__(self, data: str, rates: list, speeds: list):
        self.data = data
        self.pos = 0
        self.rates = rates
        self.speeds = speeds
        self.t = None
        self.tokens = 0
        self.f = 1.0
        self.norm_s = 0.0

    def read(self, size: int = -1) -> str:
        now = perf_counter()
        if self.t is not None:
            dt = (now - self.t) * self.f
            self.norm_s += dt
            if self.tokens:
                self.rates.append(self.tokens / dt)
                self.speeds.append(self.f)
        end = len(self.data) if size < 0 else self.pos + size
        chunk = self.data[self.pos : end]
        self.pos += len(chunk)
        self.tokens = chunk.count(" ")
        self.f = speed_factor(ref_time())
        self.t = perf_counter()
        return chunk


def cli_inputs(wl, workdir):
    """Pattern file path and stdin text for `parmatch match`."""
    path = f"{workdir}/pattern.txt"
    with open(path, "w") as fh:
        fh.write(" ".join(map(str, wl.pattern)) + "\n")
    return path, " ".join(map(str, wl.text)) + "\n"


def cli_match(pattern_path: str, data: str, fp_seed: int, rates: list, speeds: list):
    """One in-process `parmatch match` over the token stream on stdin.

    Returns (exit code, reported match starts, normalised seconds from the
    first read of the stream to the last).
    """
    out = io.StringIO()
    old = sys.stdin
    sys.stdin = source = TimedStdin(data, rates, speeds)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["match", "--pattern", pattern_path, "--text", "-",
                 "--seed", str(fp_seed)]
            )
    finally:
        sys.stdin = old
    return code, [int(x) for x in out.getvalue().split()], source.norm_s


class Tally:
    """Arrivals attempted and failed across all passes of a run."""

    def __init__(self, expected: list[int], m: int):
        self.expected = expected
        self.m = m
        self.attempted = 0
        self.failed = 0

    def check(self, starts: list[int], answered: int, lost: int = 0):
        """Gate one pass that answered its first `answered` arrivals and
        lost the next `lost` (a violation or a failed CLI run)."""
        want = [s for s in self.expected if s + self.m <= answered]
        self.attempted += answered + lost
        self.failed += gate(want, starts) + lost


def latency_samples(wl, first, tally, log) -> list[float]:
    """latency_pass over `first` and LATENCY_MATCHERS - 1 copies of it
    (identical state, each with its own FieldContext, no second run of the
    constructor); every copy's matches go through the gate."""
    m, n = len(wl.pattern), len(wl.text)
    matchers = [first] + [copy.deepcopy(first) for _ in range(LATENCY_MATCHERS - 1)]
    fsteps = None
    if wl.sigma is None:
        fsteps = [AlphabetFilter(len(set(wl.pattern)), m).step for _ in matchers]
    answered = min(n, LATENCY_BLOCKS * CHUNK)
    try:
        ends, least = latency_pass([sm.step for sm in matchers], wl.text, fsteps)
    except StructuralViolation as e:
        log(f"structural violation: {e}")
        done = arrivals_done(first)
        tally.check([], done - 1, lost=answered - done + 1)
        return [0.0]
    for found in ends:
        tally.check([e - m + 1 for e in found], answered)
    return least


def run(wl, expected, memory, seconds, workdir, log):
    """All end-to-end metrics for one workload; returns (tally, metrics).

    `memory` is memory_pass's result.  Full throughput passes, each on a
    fresh matcher, fill half of `seconds`; latency rounds fill the other
    half.  Each round feeds LATENCY_MATCHERS copies of a fresh matcher and
    takes the p50 of each sampled call's least time; the reported p50 is
    the median over rounds, since the host's speed moves a round's p50 by
    about 10% within one process.  peak_words is read after a throughput
    pass, or for the CLI, whose matcher is out of reach, after a latency
    round.
    """
    build = engine_factory(wl)
    m, n = len(wl.pattern), len(wl.text)
    tally = Tally(expected, m)
    setups, rates, speeds = [], [], []
    if wl.sigma is None:
        pattern_path, data = cli_inputs(wl, workdir)

    def fresh():
        sm, secs = timed(build)
        setups.append(secs)
        if sm.mode != wl.expect_mode:
            raise SystemExit(f"{wl.name}: routed to {sm.mode}, expected {wl.expect_mode}")
        gc.collect()
        return sm

    # Throughput passes fill the first half of `seconds`.
    start = perf_counter()
    while True:
        if wl.sigma is None:
            gc.collect()
            code, starts, secs = cli_match(pattern_path, data, wl.fp_seed, rates, speeds)
            if code == 0:
                tally.check(starts, n)
            else:
                tally.check([], 0, lost=n)
            log(f"cli pass: exit {code}, {n / secs:.0f} sym/s over the whole stream")
        else:
            sm = fresh()
            try:
                ends = throughput_pass(sm, wl.text, rates, speeds)
                tally.check([e - m + 1 for e in ends], n)
            except StructuralViolation as e:
                log(f"structural violation: {e}")
                tally.check([], arrivals_done(sm) - 1, lost=n - arrivals_done(sm) + 1)
            peak_words = sm.live_words_peak()
            del sm
        if perf_counter() >= start + seconds / 2:
            break

    least, p50s = [], []
    start = perf_counter()
    while True:
        first = fresh()
        got = latency_samples(wl, first, tally, log)
        least.extend(got)
        p50s.append(quantile(got, 0.50))
        if wl.sigma is None:
            peak_words = first.live_words_peak()
        del first
        if perf_counter() >= start + seconds / 2:
            break

    top_up = perf_counter() + SETUP_BUDGET_S
    while len(setups) < MIN_SETUPS or (perf_counter() < top_up and len(setups) < MAX_SETUPS):
        setups.append(timed(build)[1])

    held, peak, mem_s = memory
    log(f"memory pass: {mem_s:.2f} s under tracemalloc, before the timed passes")
    log(f"samples: {len(rates)} throughput chunks, {len(least)} latency steps "
        f"in {len(p50s)} rounds of {LATENCY_MATCHERS} matchers, {len(setups)} set-ups")
    log(f"round p50s: {' '.join(f'{x / 1000:.4g}' for x in p50s)} us")
    log(f"latency p99 {quantile(least, 0.99) / 1000:.4g} us (reported by the "
        f"traced run, not gated)")
    log(f"host speed factor median {median(speeds):.3f}; unnormalised throughput "
        f"median {median(r * f for r, f in zip(rates, speeds)):.0f} sym/s")
    metrics = {
        "throughput_sym_s": (median(rates), "sym/s"),
        "latency_p50_us": (median(p50s) / 1000, "us"),
        "setup_s": (median(setups), "s"),
        "state_bytes": (held, "B"),
        "setup_peak_bytes": (peak, "B"),
        "peak_words": (peak_words, "words"),
    }
    return tally, metrics
