"""The randomized streaming matcher: constant work per symbol, small space.

Per arriving symbol four cooperative phases run inside one single-threaded
step:

* the base phase takes the arrival's global predecessor distance and
  keeps circular histories of the last 4*delta predecessor values and
  prefix fingerprints of the predecessor string (delta = |alphabet| *
  ceil(log2 m) is the scheduling slack).  Every reader reads a distance
  v at window offset j < m as `v if 0 < v <= j else 0`, so a distance of
  at least m is a first occurrence in every window that holds it: the
  engine takes it as 0 on arrival, so it adds no fingerprint term,
  enters no buffer and is kept as 0 in the history, and any distance,
  one of p or more included, is valid input.  The stream is cut into
  blocks of 32 arrivals: a history entry holds only its block's sum of values
  times r^0 .. r^31, left unreduced, and a ring over the last
  4*delta/32 + 2 blocks holds each block's offset fingerprint and
  r^(its first index).  One small product per arrival, and two per
  block, is all the base phase's field work; a reader rebuilds a prefix
  fingerprint, or a power r^j, with one product more;
* phase A runs the deterministic matcher on the ladder base minus its
  last symbol: it sends each arrival's distance to the `DetCore`'s
  generator, which keeps the core's tables, cursors and fast path in
  its own locals and answers with the symbols consumed so far and
  whether a base-prefix match ended.  Phase A applies the
  final-character rule and enqueues base-prefix matches with their
  prefix fingerprints;
* phase B prepares and consumes the zeroing queues: arrivals whose
  predecessor distance lies in (m0, m), above the base length, enter a
  small buffer and are distributed to the per-level queues one level per
  arrival (Bdelta); one ladder level per arrival advances its candidate
  check (Bphi): fingerprint split, a bounded batch of zeroing-queue
  entries, then the comparison.  The split is never rebased: the difference of the two
  prefix fingerprints, minus each zeroed value times its r^pos, still
  carries the weight r^lo of the level's first second-half position lo,
  so it is compared against the precomputed level fingerprint times r^lo;
* phase C extends final-level matches over the last 4*delta positions by
  direct predecessor comparison, a bounded number per arrival, and emits
  the verdict exactly at the arrival where the window closes.

Phases B and C act only on a due arrival: one with a distance in
(m0, m) to buffer, one while a buffered distance is distributed, the
turn of a level that acts, or one where phase C acts (its tail check's
next position has arrived, or a match waits while no check is open).
A level idles (`lv_ip[l]` is -1) or checks the candidate at `lv_ip[l]`,
and acts only on its own turn, 1 + i % s.  An idle level whose input
queue holds a match acts at its first turn past the head's deadline
ip + m_l + delta: in that one turn it pops the head, splits and scans
up to _SCAN_BATCH - 7 zeroing-queue entries, so that with a short ring
it also compares and pushes.  A checking level scans _SCAN_BATCH
entries at each later turn, until its check completes.  The generator's
frame keeps the first arrival at which each level acts (`lv_next`),
`wake`, the earliest of them, and `c_at`, phase C's.  One function,
`_turn`, holds the rule for a level's entry, and every update calls it:
at every turn a level acts, at a push that gives an idle level a new
queue head (a push behind a head leaves the head's deadline as it was,
and a checking level's next turn does not move), and for every level
when a generator starts.  One test of these after phase A skips both
phases on any other arrival, where they would only have tested their
conditions.

Matches of one prefix lie more than 3*delta apart (two closer than the
prefix's length differ by a parameterized period of it), while a check
scans at most the ring's 12*sigma entries, 6 at its split and 13 at each
later turn, so it completes within sigma more turns, at most
sigma*s <= delta arrivals.  So a level is idle again before its next
head's deadline, splits every candidate within s arrivals past the
deadline, and completes by ip + m_l + delta + (sigma + 1)*s, inside the
asserted ip + m_l + 3*delta.  Bdelta hands a level at most one entry
per s arrivals, so at most one between two of its turns, and a split
scans at least one: the ring's front never passes a check's cursor, and
the "evicted unscanned entries" raise cannot fire at this batch.  It
stays to guard a lowered batch, whose split scans none (a test lowers it
to 7).  Were the head popped at the level's first idle turn instead, to
wait outside the queue for its deadline and split at a turn that scans
nothing, the splits would fall on the same arrivals and every check's
scan would run _SCAN_BATCH - 7 entries behind: no completion or push
here comes later than under that schedule, and every deadline keeps at
least its margin.

The match queues keep their 6*sigma + 2 segment budget.  A queue holds
the positions x its level l pushed and level l + 1 has not split: each
pushed after x + m_l - 1 and split by x + m_(l+1) + delta + s, so at
arrival i the starts it holds lie in [i - m_(l+1) - delta - s,
i - m_l + 1].  With the early pop a queue held only matches after
the one its level checked, which started at most
m_(l+1) + delta + (sigma + 1)*s arrivals ago, so only starts from
i - m_(l+1) + 2*delta - (sigma + 1)*s on.  The window here is less than
3*delta longer, at its old end, so it holds at most one match more, and
the queue at most one segment more.  That is the budget's one segment
beyond the structure lemma's 6*sigma explicit positions and one
progression, and every push still checks it.

Inside a chunk, after any arrival that ended no base-prefix match, left
no distance to distribute, and after which phase A's core has consumed
every arrival fed (its one test of a free core, see `det_matcher`),
the arrivals up to the next due one run in bulk, as a stretch that also
stops before the first distance in (m0, m).  Phase A sends the stretch
to the core in one chunk in stop mode, which returns right after a
base-prefix match (the arrival after it pushes, so it runs on its own),
and before an arrival that would enter its shift machinery, which runs
alone: so the machinery never runs inside a stretch, each of its
arrivals consumes one symbol, and the symbols consumed tell how far it
went.  A caught-up tail check, whose next position is the next
arrival, compares each arrival's own distance: the stretch compares its
values with the tail's in one pass, and ends before the first mismatch
and before the verdict arrival c_ip + m - 1, which run alone.
A stretch of at least _LONG_STRETCH arrivals with no tail check
comparing is read from the chunk's int64 array, in pieces that double
from _LONG_STRETCH, so that the core's and the filter's work follows the
arrivals taken.  Each piece goes to the core as a view of that array,
and the core takes its arrivals below K in one step (see
`det_matcher`); the next piece is read only when the core took this one
whole.  The base phase then takes the sums of the stretch's whole
blocks of arrivals that leave no history entry (all but the last H),
from the first block start in the stretch on, from the block-sum
kernel, `fingerprint.block_sums`, over views of the same array, and
writes every other arrival's entries as a stepped arrival does; a
shorter stretch, read as a list, writes every arrival so.  The ops and
words accounting stays exact.  An arrival of a stretch charges 9 ops, or
10 with a tail comparison, so a stretch is taken only while `OP_BUDGET`
allows 10 and `_C_BUDGET` one comparison; it holds `static_words` and
the queued matches' words, with nothing pending.  On the
`periodic_dense` benchmark workload, whose match queues are never
empty, 92.3% of the first 196,608 arrivals (chunks of 16,384) run in
6,468 stretches; the others split, scan or push at a level, catch a
tail check up or close it, or follow a base-prefix match.

The phases read only predecessor distances.  They are written once, as
the body of a generator that holds the matcher's tables and scalars in
local variables and runs one chunk of distances per `send`.  `step`
sends one distance; `scan` and `feed` alike get a chunk's from the
shared dense front end (`predecessor.DenseFrontEnd`) as one int64 array,
in which `_run` zeroes each distance of m or more before its one
`tolist()`.  After each chunk `i` is written back; the other scalars are
kept by the harness `DetCore` runs on too (`det_matcher._Engine`), so no
chunk pays for a write-back, and the calls may be mixed and the matcher
copied between them.
Only the randomized route builds a FieldContext, from `prime_bits` and
`seed`, and computes the level fingerprints.  The prime binds that route
alone: a pattern longer than the prime, whose distances would not stay
distinct field values, is refused in mode "rand" and sent to the
deterministic engine in mode "auto".  A det-routed matcher only checks
that the width is valid and holds no field values.  Each matcher builds
its own context and owns its power state.

Every capacity and deadline the analysis guarantees is asserted at
runtime; a breach raises StructuralViolation rather than degrading
silently.  Any error out of the phases ends the stream, which is not
answered past it: `run`, and phase A's core's, become an
`errors.Stopped`, so every later call raises `UsageError`, with `i` at
the arrival that raised and the matches before it reported.  Patterns
whose parameterized period is at most 3*delta, or that are shorter than
14*delta, route wholesale to the deterministic matcher.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, count, repeat
from operator import lt, ne

import numpy as np

from .det_matcher import DetCore, DetMatcher, _Engine, _Flush, _write_back
from .errors import ConfigError, Stopped, StructuralViolation
from .fingerprint import (
    DEFAULT_PRIME_BITS,
    block_sums,
    context_new,
    power_limbs,
    power_table,
    prime_for_bits,
)
from .match_queue import MatchQueue
from .pattern import PatternProfile, build_profile, level_fingerprints
from .predecessor import NEVER, DenseFrontEnd, LastOccurrence

# Arrivals per fingerprint block, a power of two.  With every value below
# m <= p, a block's unreduced sum stays below _BLOCK * m * p (2^127 for a
# 61-bit prime).
_BLOCK = 32

# Bphi batch: the zeroing queue holds at most 12*sigma entries and must be
# scanned within sigma round-robin turns after a split.  A split turn
# scans _SCAN_BATCH - 7 entries, since it also pops (2) and splits (5).
# That is at least one, and Bdelta adds at most one entry to a level's
# ring between two of its turns, so a check's cursor never falls behind
# the ring's front and "evicted unscanned entries" cannot fire; the raise
# guards a lowered batch (`test_a_zeroing_queue_too_small_raises` sets 7,
# whose split scans nothing).
_SCAN_BATCH = 13
# Process C: 4*delta comparisons spread over the final delta arrivals.
_C_BUDGET = 5

# Hard per-arrival ceiling on counted operations (field multiplications and
# buffer touches), summed over the phase caps: base 7 (a flat charge that
# covers its table and history touches, one product per arrival and two
# per block), phase A 7 (1 + at most 3 consumed symbols + 3 for the push),
# Bdelta 5, Bphi 16 (a split turn's pop 2 + split 5 + 1 + 6 entries +
# push 2, or a later turn's 1 + 13 entries + push 2), C 7.  Independent of
# the pattern length by construction; enforced per arrival.
OP_BUDGET = 7 + (1 + 3 + 3) + 5 + (1 + _SCAN_BATCH + 2) + (2 + _C_BUDGET)
# A stretch of at least this many arrivals is read from its chunk's int64
# array (see the module docstring).  Scanning the first 196,608 arrivals of
# the `planted_512k` and `long_gap` benchmark workloads (seed 11) in chunks
# of L, one arrival alone and a stretch of L - 1, took per arrival, arrays
# against lists: 1.29x and 1.08x at L = 64, 1.02x and 0.93x at 128, 0.89x
# and 0.82x at 256, 0.75x and 0.63x at 512 (CPython 3.11, numpy 2.4, 2-core
# x86 VM, best of 5).
# `periodic_dense` has 2 stretches this long in its first 196,608
# arrivals.
_LONG_STRETCH = 256
# The most ops an arrival of a stretch charges: the base phase's flat 7,
# and phase A's 1 plus its one symbol; nothing pushes.  A caught-up tail
# check adds 1.
_QUIET_OPS = 10


def _turn(ell, i, ip, queue, wait, s):
    """The first arrival after i at which level ell acts: its next turn
    while it checks (ip >= 0), its first turn past its queue head's
    deadline, the head's start plus `wait` (m_ell + delta), while it
    idles with a match queued, NEVER while it idles on an empty queue.
    Its turns are the arrivals t with 1 + t % s == ell."""
    if ip >= 0:
        x = i + 1
    elif queue:
        x = max(queue[0][0] + wait, i) + 1
    else:
        return NEVER
    return x + (ell - 1 - x) % s


class StreamMatcher(DenseFrontEnd, _Engine):
    """Streaming matcher for one pattern over a dense alphabet.

    The stream arrives as distances through `feed`, or as symbols through
    the dense front end's `step` and `scan`.  A pattern routed to the
    deterministic engine makes a `_DetRouted` matcher instead, which
    passes every call to its `DetMatcher`.

    Its phase generator and the scalars that `_STATE` names are kept by
    the `_Engine` harness, as `DetCore`'s are.  `i` is a plain attribute,
    written after every chunk: the front end reads it on every `step`.
    """

    __slots__ = (
        "m",
        "sigma",
        "p",
        "det",
        "delta",
        "H",
        "s",
        "mlen",
        "m0",
        "i",
        "rtab",
        "blocks",
        "tracker",
        "hist_fp",
        "hist_pred",
        "suba",
        "p0_last",
        "bbuf",
        "dq_bufs",
        "dq_next",
        "dq_cap",
        "lv_ip",
        "lv_acc",
        "lv_rlo",
        "lv_cur",
        "lv_end",
        "gap_inv",
        "level_fp",
        "mq",
        "tail_target",
        "static_words",
        "debug_checks",
        "run",
        "state",
        "__weakref__",
    )

    _STATE = ("loc", "a_prev", "bcur", "bnext", "c_ip", "c_k", "mq_words",
              "ops_last", "ops_max", "words_peak", "b_peak")
    # The engine that runs the stream: the class routing chose.
    mode = "rand"

    def __init__(
        self,
        pattern,
        sigma: int,
        mode: str = "auto",
        prime_bits: int = DEFAULT_PRIME_BITS,
        seed: int = 0,
    ):
        if mode not in ("auto", "det", "rand"):
            raise ConfigError(f"unknown mode {mode!r}")
        m = len(pattern)
        self.m = m
        self.run = None
        self.sigma = sigma
        # The range check on the width, in every mode; only the randomized
        # route builds a context, and the prime of a width is fixed.
        p = prime_for_bits(prime_bits)
        profile = build_profile(pattern, sigma)
        ladder = profile.ladder

        if mode == "rand" and ladder.mode != "rand":
            raise ConfigError(
                f"pattern not eligible for the randomized matcher: {ladder.reason}"
            )
        # The fingerprints take distances below m as field values, which
        # stay distinct residues only while m <= p; past that, two pred
        # strings may agree for every base, and a level check's bound
        # |S|/(p - 1) promises nothing.  Auto mode takes such a pattern to
        # the deterministic engine, which uses no field.
        if mode == "rand" and m > p:
            raise ConfigError(f"pattern length {m} exceeds prime {p}")
        if mode == "det" or ladder.mode == "det" or m > p:
            # The det route's calls are _DetRouted's methods, so the rand
            # route's `step` and `i` stay the front end's and a slot, with
            # no per-arrival test of the route.
            self.__class__ = _DetRouted
            self.det = DetMatcher(profile)
            return
        self.det = None
        ctx = context_new(prime_bits, seed)
        self.p = p
        lens = ladder.lengths
        pred = profile.pred
        # Before any other table, so that the fingerprint kernel's chunk
        # temporaries add only to the profile's lists at the peak.
        self.level_fp = level_fingerprints(ctx, lens, pred)

        delta = ladder.delta
        self.delta = delta
        self.H = 4 * delta
        self.s = ladder.s
        self.mlen = lens
        self.m0 = m0 = lens[0]
        self.i = -1
        self.tracker = LastOccurrence(sigma)
        H = self.H
        # hist_fp[j % H]: the sum over arrivals k of j's block, up to j, of
        # pred value times r^(k % _BLOCK), unreduced; loc is the current
        # block's sum.
        self.hist_fp = [0] * H
        self.hist_pred = [0] * H
        # r^0 .. r^_BLOCK.
        self.rtab = rtab = power_table(ctx, _BLOCK)
        # Entries 2b and 2b + 1 for block b (mod the ring's H // _BLOCK + 2
        # blocks, enough for any index still in the history): the prefix
        # fingerprint before the block's first arrival, and r^(that index).
        # The entry of block -1 is (0, r^-_BLOCK), so that block 0's comes
        # out as (0, 1).
        self.blocks = [0, 1] * (H // _BLOCK + 2)
        self.blocks[-1] = pow(ctx.r_inv, _BLOCK, p)

        # Prefix periods and pred of the base minus its last symbol are
        # prefixes of the pattern's; the ladder check bounds its period.
        self.suba = DetCore(
            PatternProfile(m0 - 1, sigma, profile.periods[:m0], pred[: m0 - 1], None)
        )
        self.p0_last = pred[m0 - 1]

        self.bbuf = deque()
        s = self.s
        cap = 12 * sigma
        self.dq_cap = cap
        self.dq_bufs = [None] + [[None] * cap for _ in range(s)]
        self.dq_next = [0] * (s + 1)

        # A level checks the candidate at lv_ip while it is >= 0, and
        # idles at -1.
        self.lv_ip = [-1] * (s + 1)
        self.lv_acc = [0] * (s + 1)
        self.lv_rlo = [0] * (s + 1)
        self.lv_cur = [0] * (s + 1)
        self.lv_end = [0] * (s + 1)

        # r^-(m_l - m_(l-1)): takes r^(ip + m_l) to r^lo, lo = ip + m_(l-1).
        self.gap_inv = [0] + [
            pow(ctx.r_inv, lens[l] - lens[l - 1], p) for l in range(1, s + 1)
        ]
        budget = 6 * sigma + 2
        self.mq = [
            MatchQueue(
                diff=profile.periods[lens[l]],
                rpd=pow(ctx.r, profile.periods[lens[l]], p),
                p=p,
                budget=budget,
            )
            for l in range(0, s + 1)
        ]
        self.tail_target = pred[m - H :]
        self.static_words = (
            3 * H  # two histories and the tail
            + len(self.rtab)
            + len(self.blocks)
            + sigma  # the front end's table
            + 3 * cap * s
            + 5 * (s + 1)
            + self.suba.live_words()
            + 32
        )
        # An empty block sum, no base-prefix match, no distance being
        # distributed, no tail check, and empty queues and gauges.
        self.state = (0, False, None, 1, -1, 0, 0, 0, 0, 0, 0)
        # When set to a list, every completed level check appends
        # (level, candidate, computed second-half fingerprint rebased to r^0).
        self.debug_checks = None

    # ------------------------------------------------------------------

    def _arrive(self, pv: int) -> bool:
        return (self.run or self._start()).send(((pv,), None, None, None))

    def _run(self, arr, out) -> None:
        # A distance of m or more is a first occurrence in every window,
        # which every reader reads as 0: it is zeroed once, in the array
        # that long stretches read and in the list the others read.
        arr[arr >= self.m] = 0
        preds = arr.tolist()
        (self.run or self._start()).send((iter(preds), out, preds, arr))

    def _body(self):
        """The four phases, run over each chunk of distances sent as
        (arrivals, out, preds, arr).

        A chunk is one arrival's distance in a tuple, with `out`, `preds`
        and `arr` None, or an iterator over the list `preds`, with `arr`
        the int64 array it was read from, in which, as in the list, each
        distance of m or more is 0.  Every table and scalar of the matcher
        is held in this frame's locals between chunks.  `i` is written back after each
        chunk; the scalars that `_STATE` names are written back to the
        `state` record only when `_Flush` is thrown in, as `DetCore`'s are.
        An error writes them back too, with `i` at the arrival that raised,
        and ends the stream (see the module docstring).  Match end indices
        are appended to `out` unless it is None; yields whether the chunk
        had any.  `_Engine._start` runs it with `self` a weak proxy.
        """
        sigma = self.sigma
        p = self.p
        H = self.H
        hist_fp = self.hist_fp
        hist_pred = self.hist_pred
        rtab = self.rtab
        r_block = rtab[_BLOCK]
        mask = _BLOCK - 1
        blocks = self.blocks
        nb = len(blocks) // 2
        m = self.m
        m0 = self.m0
        p0_last = self.p0_last
        mq = self.mq
        segs = [q.segs for q in mq]
        q0 = mq[0]
        bbuf = self.bbuf
        mlen = self.mlen
        s = self.s
        delta = self.delta
        dq_bufs = self.dq_bufs
        dq_next = self.dq_next
        dq_cap = self.dq_cap
        lv_ip = self.lv_ip
        lv_acc = self.lv_acc
        lv_rlo = self.lv_rlo
        lv_cur = self.lv_cur
        lv_end = self.lv_end
        gap_inv = self.gap_inv
        level_fp = self.level_fp
        target = self.tail_target
        static_words = self.static_words
        m0s = repeat(m0)
        # A long stretch is read from its chunk's int64 array.  The
        # block-sum kernel takes values below 2^31: every distance below m
        # is.
        long_at = _LONG_STRETCH if m <= 1 << 31 else NEVER
        limbs = power_limbs(rtab[:_BLOCK])

        # Phase A sends the core's generator one arrival at a time.
        suba = self.suba
        arrive = (suba.run or suba._start()).send
        a_done = suba.consumed
        pending = suba.pending

        i = self.i
        (loc, a_prev, bcur, bnext, c_ip, c_k, mq_words,
         ops_last, ops_max, words_peak, b_peak) = self.state
        # The current block's offset fingerprint and r^(its first index).
        b = 2 * (i // _BLOCK % nb)
        bfp = blocks[b]
        bpw = blocks[b + 1]
        # The first arrival at which each level acts (`_turn`), `wake`,
        # the earliest, and `c_at`, the first arrival at which phase C
        # acts: the position its tail check compares next, or the next
        # arrival while a match waits and no check is open.  Locals, kept
        # up to date at every push, pop and transition, so a new generator
        # computes them again; an open tail check gets the next arrival,
        # where phase C sets its own (which also covers a history shorter
        # than the comparisons made).  A plain loop, and `_turn` a module
        # function: a comprehension or a closure would turn the tables
        # they read into cell variables, which every arrival then loads
        # more slowly.
        lv_next = [NEVER] * (s + 1)
        for ell in range(1, s + 1):
            lv_next[ell] = _turn(ell, i, lv_ip[ell], segs[ell - 1], mlen[ell] + delta, s)
        wake = min(lv_next)
        c_at = i + 1 if c_ip >= 0 or segs[s] else NEVER
        synced = True
        hit = False
        while True:
            try:
                arrivals, out, preds, arr = yield hit
                hit = False
                if synced:
                    synced = self.state = None
                for pv in arrivals:
                    i += 1
                    off = i & mask
                    if not off:
                        # A block's first arrival: the previous block's
                        # sum joins the offset.
                        bfp = (bfp + bpw * loc) % p
                        bpw = bpw * r_block % p
                        loc = 0
                        b = 2 * (i // _BLOCK % nb)
                        blocks[b] = bfp
                        blocks[b + 1] = bpw
                    # A distance of m or more is a first occurrence in
                    # every window: 0, as `_run` makes it in a chunk.
                    if pv >= m:
                        pv = 0
                    loc += pv * rtab[off]
                    slot = i % H
                    hist_fp[slot] = loc
                    hist_pred[slot] = pv

                    # Phase A: base-prefix matches.  The core answers each
                    # send with the symbols it has consumed, negated when a
                    # match ends.  Idle with nothing deferred, its table
                    # path (below K) and its fast path (a first comparison
                    # that succeeds) consume one symbol, so the common case
                    # costs 9 ops.
                    prev = a_prev
                    done = arrive(pv)
                    a_prev = done < 0
                    if a_prev:
                        done = -done
                    ops = 8 + done - a_done
                    a_done = done
                    if prev and ((p0_last == pv) if 0 < pv < m0 else (p0_last == 0)):
                        w0 = q0.words
                        q0.push(i - m0 + 1, (bfp + bpw * loc) % p)
                        mq_words += q0.words - w0
                        ops += 3
                        if not w0 and lv_ip[1] < 0:
                            # A new head of an idle level 1's queue.  A push
                            # behind a head would recompute the entry it
                            # has, so `not w0` only saves that call.  (At an
                            # arrival where level 1 is due, the entry would
                            # move a turn later, but `wake` would stay, and
                            # Bphi pops at 1 + i % s without reading
                            # lv_next.)
                            x = lv_next[1] = _turn(1, i, -1, segs[0], mlen[1] + delta, s)
                            if x < wake:
                                wake = x

                    # Phases B and C have work only on an arrival where one
                    # of them is due: a long distance to buffer, a buffered
                    # one, a level's turn to act, or phase C's.  On any other
                    # arrival they would only test their conditions.
                    if (
                        bcur is not None
                        or bbuf
                        or i >= wake
                        or i >= c_at
                        or pv > m0
                    ):
                        # Phase Bdelta: buffer long-distance arrivals,
                        # distribute one level.
                        if pv > m0:
                            bbuf.append((i, pv, bpw * rtab[off] % p))
                            lb = len(bbuf)
                            if lb > sigma:
                                raise StructuralViolation(
                                    f"distance buffer exceeded {sigma} entries"
                                )
                            if lb > b_peak:
                                b_peak = lb
                            ops += 2
                        if bcur is None and bbuf:
                            bcur = bbuf.popleft()
                            bnext = 1
                        if bcur is not None:
                            if bcur[1] > mlen[bnext - 1]:
                                nxt = dq_next[bnext]
                                dq_bufs[bnext][nxt % dq_cap] = bcur
                                dq_next[bnext] = nxt + 1
                                ops += 2
                            if bnext >= s:
                                bcur = None
                            else:
                                bnext += 1
                            ops += 1

                        # Phase Bphi: one level per arrival, in turn,
                        # advances its candidate check; only the level whose
                        # turn this is can be due.
                        if i >= wake:
                            ell = 1 + i % s
                            ip = lv_ip[ell]
                            batch = _SCAN_BATCH
                            if ip < 0:
                                # An idle level's first turn past its queue
                                # head's deadline: pop, split and scan.
                                ql = mq[ell - 1]
                                w0 = ql.words
                                ip, fp = ql.pop()
                                mq_words += ql.words - w0
                                lv_ip[ell] = ip
                                idx = ip + mlen[ell] - 1
                                if i - idx >= H:
                                    raise StructuralViolation(
                                        f"fingerprint history expired for level {ell}"
                                    )
                                # Prefix fingerprint through idx, less the
                                # popped one, and r^(idx + 1).
                                b = 2 * (idx // _BLOCK % nb)
                                acc = (blocks[b] + blocks[b + 1] * hist_fp[idx % H] - fp) % p
                                b = 2 * ((idx + 1) // _BLOCK % nb)
                                pw = blocks[b + 1] * rtab[(idx + 1) & mask]
                                lv_rlo[ell] = pw * gap_inv[ell] % p
                                # Scanning starts from the queue's first entry
                                # ever, so the split turn checks what the ring
                                # lost before it as well.
                                cur = 0
                                end = lv_end[ell] = dq_next[ell]
                                batch -= 7
                                ops += 7
                            else:
                                acc = lv_acc[ell]
                                cur = lv_cur[ell]
                                end = lv_end[ell]
                            lo = ip + mlen[ell - 1]
                            hi = ip + mlen[ell] - 1
                            front = dq_next[ell] - dq_cap
                            if front < 0:
                                front = 0
                            buf = dq_bufs[ell]
                            if cur < front:
                                # Entries were evicted before being scanned
                                # (entries enter in position order); safe only
                                # if everything lost sat below the zeroing
                                # range.
                                if front >= end:
                                    raise StructuralViolation(
                                        f"level {ell} zeroing queue evicted"
                                        " unscanned entries"
                                    )
                                if buf[front % dq_cap][0] > lo:
                                    raise StructuralViolation(
                                        f"level {ell} may have lost zeroing candidates"
                                    )
                                cur = front
                            stop = cur + batch
                            if stop > end:
                                stop = end
                            ops += 1 + stop - cur
                            while cur < stop:
                                pos, pvj, rj = buf[cur % dq_cap]
                                if lo <= pos <= hi and pvj > pos - ip:
                                    acc = (acc - pvj * rj) % p
                                cur += 1
                            lv_acc[ell] = acc
                            lv_cur[ell] = cur
                            if cur >= end:
                                rlo = lv_rlo[ell]
                                debug = self.debug_checks
                                if debug is not None:
                                    debug.append((ell, ip, acc * pow(rlo, -1, p) % p))
                                if acc == level_fp[ell] * rlo % p:
                                    if i >= ip + mlen[ell] + 3 * delta:
                                        raise StructuralViolation(
                                            f"level {ell} missed its reporting deadline"
                                        )
                                    qn = mq[ell]
                                    w0 = qn.words
                                    # Still in the history: i - hi <= 3*delta
                                    # < H by the deadline above.
                                    b = 2 * (hi // _BLOCK % nb)
                                    fp = blocks[b] + blocks[b + 1] * hist_fp[hi % H]
                                    qn.push(ip, fp % p)
                                    mq_words += qn.words - w0
                                    ops += 2
                                    # A new head of an idle level's queue;
                                    # `not w0` only saves the call, as at
                                    # phase A's push (this is never the
                                    # next level's turn).  Phase C takes
                                    # the last level's below.
                                    if ell < s and not w0 and lv_ip[ell + 1] < 0:
                                        lv_next[ell + 1] = _turn(
                                            ell + 1, i, -1, segs[ell], mlen[ell + 1] + delta, s
                                        )
                                ip = lv_ip[ell] = -1
                            lv_next[ell] = _turn(
                                ell, i, ip, segs[ell - 1], mlen[ell] + delta, s
                            )
                            wake = min(lv_next)

                        # Phase C: extend final-level matches across the
                        # explicit tail.
                        if c_ip < 0 and segs[s]:
                            qs = mq[s]
                            w0 = qs.words
                            c_ip = qs.pop()[0]
                            mq_words += qs.words - w0
                            c_k = 0
                            if i - c_ip - mlen[s] >= H:
                                raise StructuralViolation("predecessor history expired")
                            ops += 2
                        if c_ip >= 0:
                            k = c_k
                            base = c_ip + m - H
                            budget = _C_BUDGET
                            while budget > 0 and k < H:
                                j = base + k
                                if j > i:
                                    break
                                pvj = hist_pred[j % H]
                                w = pvj if 0 < pvj <= j - c_ip else 0
                                if w != target[k]:
                                    c_ip = -1
                                    break
                                k += 1
                                budget -= 1
                            ops += _C_BUDGET - budget
                            if c_ip >= 0:
                                if k >= H:
                                    if i != c_ip + m - 1:
                                        raise StructuralViolation(
                                            "tail check completed off schedule"
                                        )
                                    hit = True
                                    if out is not None:
                                        out.append(i)
                                    c_ip = -1
                                else:
                                    c_k = k
                                    if i >= c_ip + m - 1:
                                        raise StructuralViolation(
                                            "tail check behind schedule"
                                        )
                        # Phase C acts next at the position it compares
                        # next, or at the next arrival if a match waits
                        # (which the ladder's spacing rules out: a check
                        # closes before the next candidate can pass level s).
                        if c_ip >= 0:
                            c_at = c_ip + m - H + c_k
                        else:
                            c_at = i + 1 if segs[s] else NEVER

                    ops_last = ops
                    if ops > ops_max:
                        ops_max = ops
                        if ops > OP_BUDGET:
                            raise StructuralViolation(
                                f"arrival {i} used {ops} ops, budget {OP_BUDGET}"
                            )
                    words = static_words + 3 * len(bbuf) + mq_words + len(pending)
                    if words > words_peak:
                        words_peak = words

                    if (
                        out is not None
                        and wake > i + 1
                        and not a_prev
                        and bcur is None
                        and not bbuf
                        and a_done == i + 1
                    ):
                        # An arrival of a chunk that ended no base-prefix
                        # match and after which phase A's core has consumed
                        # every arrival fed: the arrivals after it run in
                        # bulk up to the next due one (see the module
                        # docstring).  A caught-up tail check compares one
                        # position on each, and its verdict runs alone.
                        tail = c_at == i + 1 and c_ip >= 0
                        due = c_ip + m - 1 if tail else c_at
                        if wake < due:
                            due = wake
                        rest = arrivals.__length_hint__()
                        edge = i + rest
                        if due <= edge:
                            edge = due - 1
                        if edge > i and OP_BUDGET >= _QUIET_OPS and _C_BUDGET > 0:
                            # preds[j + at] is arrival j.
                            at = len(preds) - rest - i - 1
                            j = i + 1
                            # A long stretch with no tail check comparing
                            # is read from the chunk's int64 array, in
                            # pieces that double from `long_at`, so that
                            # the work follows the arrivals taken; the core
                            # gets each piece as a view of the array.  Any
                            # other is read as one list.
                            long = edge - i >= long_at and not tail
                            w = long_at if long else edge - i
                            while j <= edge:
                                z = j + w
                                if z > edge:
                                    z = edge + 1
                                # The values up to the first in (m0, m).
                                if long:
                                    a = arr[j + at : z + at]
                                    far = np.flatnonzero(a > m0)
                                    n = int(far[0]) if len(far) else z - j
                                else:
                                    a = preds[j + at : z + at]
                                    n = z - j
                                    if max(a) > m0:
                                        n = next(compress(count(), map(lt, m0s, a)))
                                    if tail and n:
                                        # Arrival j compares its own distance,
                                        # read as `v if 0 < v <= j - c_ip else
                                        # 0`: below m0 < m - H <= j - c_ip, so
                                        # it is its value (0 for one of m or
                                        # more).  The first mismatch closes the
                                        # check and runs alone.
                                        cut = target[c_k : c_k + n]
                                        if a[:n] != cut:
                                            n = next(compress(count(), map(ne, a, cut)))
                                if not n:
                                    break
                                # In stop mode the core neither defers an
                                # arrival nor enters its machinery, so this
                                # send cannot raise.  Each arrival it takes
                                # consumes one symbol; an empty run, which
                                # only a failed first comparison at r >= K
                                # makes, changes nothing.  A distance of m
                                # or more, sent as 0, is a first occurrence
                                # to the core too: its pattern is shorter.
                                done = arrive((a[:n], None, True))
                                a_prev = done < 0
                                if a_prev:
                                    done = -done
                                j += done - a_done
                                a_done = done
                                if a_prev or j < z:
                                    break
                                w += w
                            last = j - 1
                            if last > i:
                                # Arrivals up to `last - H` leave no history
                                # entry (later ones take their slots), so in
                                # a long stretch the kernel sums their whole
                                # blocks, from the first block start after
                                # i to the last up to `last - H + 1`; every
                                # other arrival writes its entries, as a
                                # stepped one does.
                                kb = (i + _BLOCK) & -_BLOCK
                                ke = (last - H + 1) & -_BLOCK if long else kb
                                if ke > kb:
                                    a = arr[kb + at : ke + at].reshape(-1, _BLOCK)
                                    sums = iter(block_sums(a, limbs))
                                j = i + 1
                                while j <= last:
                                    off = j & mask
                                    if not off:
                                        bfp = (bfp + bpw * loc) % p
                                        bpw = bpw * r_block % p
                                        loc = 0
                                        b = 2 * (j // _BLOCK % nb)
                                        blocks[b] = bfp
                                        blocks[b + 1] = bpw
                                        if kb <= j < ke:
                                            loc = next(sums)
                                            j += _BLOCK
                                            continue
                                    z = j - off + _BLOCK
                                    if z > last:
                                        z = last + 1
                                    for pv in preds[j + at : z + at]:
                                        loc += pv * rtab[off]
                                        slot = j % H
                                        hist_fp[slot] = loc
                                        hist_pred[slot] = pv
                                        off += 1
                                        j += 1
                                if tail:
                                    c_k += last - i
                                    c_at = last + 1
                                i = last
                                # Each arrival of the stretch charges 9 ops, or
                                # 10 with a tail comparison, and holds
                                # static_words and the queued matches' words.
                                # Both are already counted: the stream's first
                                # arrival charged 9, the tail check's pop 10 or
                                # more, and the arrival before the stretch ran
                                # alone and held at least as many words.
                                ops_last = 9 + tail
                                # On from the arrival after the stretch.
                                arrivals.__setstate__(i + 1 + at)
                            # The frame outlives the chunk: drop the stretch's
                            # lists and arrays, and at its end the chunk's.
                            a = cut = sums = None
                self.i = i
                arrivals = preds = arr = None
            except GeneratorExit:
                # Closed as its matcher is freed: there is nothing to write to.
                raise
            except BaseException as e:
                self.state = (loc, a_prev, bcur, bnext, c_ip, c_k, mq_words,
                              ops_last, ops_max, words_peak, b_peak)
                synced = True
                if e.__class__ is not _Flush:
                    # Unless the error was its own, phase A's core holds
                    # its state in its generator: it is written back, and
                    # the core stops with the matcher.
                    self.i = i
                    _write_back(suba)
                    self.run = suba.run = Stopped(e)
                    raise

    def live_words_peak(self) -> int:
        return self.words_peak

    def max_ops(self) -> int:
        return self.ops_max

    def d_fill_max(self) -> int:
        """Entries ever pushed into the busiest zeroing queue, capped at
        its 12*sigma slots.

        Not the live occupancy: a ring slot is overwritten, never freed,
        so once 12*sigma entries have been pushed this reads the capacity,
        and asserting that it stays at most 12*sigma cannot fail.
        """
        cap = self.dq_cap
        return max(min(n, cap) for n in self.dq_next[1:])


class _DetRouted(StreamMatcher):
    """A matcher whose pattern routed to the deterministic engine.

    Its `DetMatcher`, `det`, is its front end and engine: every call goes
    there, and it holds none of the randomized engine's state.
    """

    __slots__ = ()
    mode = "det"

    @property
    def i(self) -> int:
        return self.det.i

    def step(self, sym: int) -> bool:
        return self.det.step(sym)

    def scan(self, text, out=None) -> list[int]:
        return self.det.scan(text, out)

    def feed(self, preds, out=None) -> list[int]:
        return self.det.feed(preds, out)

    def live_words_peak(self) -> int:
        return self.det.live_words_peak()

    def __getstate__(self):
        # The slots it sets; `i` is its DetMatcher's.
        return None, {"m": self.m, "sigma": self.sigma, "det": self.det}
