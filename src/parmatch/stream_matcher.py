"""The randomized streaming matcher: constant work per symbol, small space.

Per arriving symbol four cooperative phases run inside one single-threaded
step:

* the base phase takes the arrival's global predecessor distance and
  keeps circular histories of the last 4*delta predecessor values and
  prefix fingerprints of the predecessor string (delta = |alphabet| *
  ceil(log2 m) is the scheduling slack).  Every reader reads a distance
  v at window offset j < m as `v if 0 < v <= j else 0`, so a distance of
  at least m is a first occurrence in every window that holds it: it
  adds no fingerprint term and enters no buffer, and any distance, one
  of p or more included, is valid input.  The stream is cut into blocks
  of 32 arrivals: a history entry holds only its block's sum of values
  times r^0 .. r^31, left unreduced, and a ring over the last
  4*delta/32 + 2 blocks holds each block's offset fingerprint and
  r^(its first index).  One small product per arrival, and two per
  block, is all the base phase's field work; a reader rebuilds a prefix
  fingerprint, or a power r^j, with one product more;
* phase A runs the deterministic matcher on the ladder base minus its
  last symbol (one `DetCore.step_pred` call per arrival; the core owns
  its tables, cursors and fast path), applies the final-character rule,
  and enqueues base-prefix matches with their prefix fingerprints;
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

Phases B and C have work only while a candidate is in flight: a distance
in (m0, m) to buffer, a buffered one, a queued match, a level scanning
or past its deadline, or a tail check.  A waiting level has nothing to
do until i > ip + m_l + delta, so the generator's frame keeps `wake`,
at most the earliest deadline of the waiting levels (NEVER when every
level is idle, below i while a level scans), and changes it only at a
level's transition; it is computed again from `lv_phase` and
`lv_ip` when a generator starts.  One test of these after phase A skips
both phases on a quiet arrival, where they would only have tested their
conditions: at seed 5, 99.92% of the arrivals on the `planted_512k`
benchmark workload, whose candidate climbs the ladder while the queues
are empty, and every arrival on `long_gap`, whose recurrences past m are
first occurrences.  The ops and words accounting follows the phases on
every arrival, so `ops_last`, `ops_max`, `words_peak` and the
`OP_BUDGET` check stay exact arrival by arrival.

The phases read only predecessor distances.  They are written once, as
the body of a generator that holds the matcher's tables and scalars in
local variables and runs one chunk of distances per `send`: `feed` sends
the distances it is given, and `step` and `scan` those of the shared
dense front end (`predecessor.DenseFrontEnd`), which looks each symbol
up in a last-occurrence table in lock-step with the phases.  After each
chunk the scalars are written back to the attributes, so the calls may be
mixed and the matcher copied between them.
Only the randomized route builds a FieldContext, from `prime_bits` and
`seed`, and computes the level fingerprints.  The prime binds that route
alone: a pattern longer than the prime, whose distances would not stay
distinct field values, is refused in mode "rand" and sent to the
deterministic engine in mode "auto".  A det-routed matcher only checks
that the width is valid and holds no field values.  Each matcher builds
its own context and owns its power state.

Every capacity and deadline the analysis guarantees is asserted at
runtime; a breach raises StructuralViolation rather than degrading
silently.  Patterns whose parameterized period is at most 3*delta, or
that are shorter than 14*delta, route wholesale to the deterministic
matcher.
"""

from __future__ import annotations

from collections import deque

from .det_matcher import DetCore, DetMatcher
from .errors import ConfigError, StructuralViolation
from .fingerprint import DEFAULT_PRIME_BITS, context_new, power_table, prime_for_bits
from .match_queue import MatchQueue
from .pattern import PatternProfile, build_profile, level_fingerprints
from .predecessor import NEVER, DenseFrontEnd, LastOccurrence

_IDLE, _WAIT, _SCAN = 0, 1, 2

# Arrivals per fingerprint block, a power of two.  With every value below
# m <= p, a block's unreduced sum stays below _BLOCK * m * p (2^127 for a
# 61-bit prime).
_BLOCK = 32

# Bphi batch: the zeroing queue holds at most 12*sigma entries and must be
# scanned within sigma round-robin turns.
_SCAN_BATCH = 13
# Process C: 4*delta comparisons spread over the final delta arrivals.
_C_BUDGET = 5

# Hard per-arrival ceiling on counted operations (field multiplications and
# buffer touches), summed over the phase caps: base 7 (a flat charge that
# covers its table and history touches, one product per arrival and two
# per block), phase A 7 (1 + at most 3 consumed symbols + 3 for the push),
# Bdelta 5, Bphi 16 (scan turn), C 7.  Independent of the pattern length by
# construction; enforced per arrival.
OP_BUDGET = 7 + (1 + 3 + 3) + 5 + (1 + _SCAN_BATCH + 2) + (2 + _C_BUDGET)


class StreamMatcher(DenseFrontEnd):
    """Streaming matcher for one pattern over a dense alphabet.

    The stream arrives as distances through `feed`, or as symbols through
    the dense front end's `step` and `scan`.  A pattern routed to the
    deterministic engine makes a `_DetRouted` matcher instead, which
    passes every call to its `DetMatcher`.
    """

    __slots__ = (
        "m",
        "sigma",
        "mode",
        "p",
        "det",
        "delta",
        "H",
        "s",
        "mlen",
        "m0",
        "i",
        "loc",
        "rtab",
        "blocks",
        "tracker",
        "hist_fp",
        "hist_pred",
        "suba",
        "a_prev",
        "p0_last",
        "bbuf",
        "bcur",
        "bnext",
        "dq_bufs",
        "dq_next",
        "dq_cap",
        "lv_phase",
        "lv_ip",
        "lv_acc",
        "lv_rlo",
        "lv_cur",
        "lv_end",
        "gap_inv",
        "level_fp",
        "mq",
        "c_ip",
        "c_k",
        "tail_target",
        "mq_words",
        "static_words",
        "ops_last",
        "ops_max",
        "words_peak",
        "b_peak",
        "debug_checks",
        "run",
    )

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
            self.mode = "det"
            self.det = DetMatcher(profile)
            return
        self.mode = "rand"
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
        self.loc = 0
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
        self.a_prev = False
        self.p0_last = pred[m0 - 1]

        self.bbuf = deque()
        self.bcur = None
        self.bnext = 1
        s = self.s
        cap = 12 * sigma
        self.dq_cap = cap
        self.dq_bufs = [None] + [[None] * cap for _ in range(s)]
        self.dq_next = [0] * (s + 1)

        self.lv_phase = [0] * (s + 1)
        self.lv_ip = [0] * (s + 1)
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
        self.c_ip = -1
        self.c_k = 0
        self.tail_target = pred[m - H :]
        self.mq_words = 0
        self.static_words = (
            3 * H  # two histories and the tail
            + len(self.rtab)
            + len(self.blocks)
            + sigma  # the front end's table
            + 3 * cap * s
            + 6 * (s + 1)
            + self.suba.live_words()
            + 32
        )
        self.ops_last = 0
        self.ops_max = 0
        self.words_peak = 0
        self.b_peak = 0
        # When set to a list, every completed level check appends
        # (level, candidate, computed second-half fingerprint rebased to r^0).
        self.debug_checks = None

    def __getstate__(self):
        # A generator cannot be copied; the copy builds its own.
        state = {k: getattr(self, k) for k in self.__slots__ if hasattr(self, k)}
        state["run"] = None
        return None, state

    # ------------------------------------------------------------------

    def _arrive(self, pv: int) -> bool:
        return (self.run or self._start()).send(((pv,), None))

    def _run(self, preds, out) -> None:
        (self.run or self._start()).send((preds, out))

    def _start(self):
        run = self.run = self._phases()
        next(run)
        return run

    def _phases(self):
        """The four phases, run over each chunk of distances sent as
        (preds, out).

        Every table and scalar of the matcher is held in this frame's
        locals between chunks; the scalars are written back to the
        attributes after each chunk, also when an error stops it (the
        peaks as soon as they rise).  An error ends the generator, and the
        next call builds a new one from the attributes.  Match end indices
        are appended to `out` unless it is None; yields whether the chunk
        had any.
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
        lv_phase = self.lv_phase
        lv_ip = self.lv_ip
        lv_acc = self.lv_acc
        lv_rlo = self.lv_rlo
        lv_cur = self.lv_cur
        lv_end = self.lv_end
        gap_inv = self.gap_inv
        level_fp = self.level_fp
        target = self.tail_target
        static_words = self.static_words

        suba = self.suba
        step_pred = suba.step_pred
        pending = suba.pending

        i = self.i
        loc = self.loc
        # The current block's offset fingerprint and r^(its first index).
        b = 2 * (i // _BLOCK % nb)
        bfp = blocks[b]
        bpw = blocks[b + 1]
        a_prev = self.a_prev
        bcur = self.bcur
        bnext = self.bnext
        c_ip = self.c_ip
        c_k = self.c_k
        mq_words = self.mq_words
        # Levels not idle, the sum of the waiting levels' deadlines, and
        # `wake`: at most the earliest such deadline, below i while a level
        # scans, NEVER when every level is idle.  Locals, changed only at
        # level transitions, so a new generator computes them again from
        # lv_phase and lv_ip.  A plain loop: a comprehension would turn the
        # tables it reads into cell variables, which every arrival then
        # loads more slowly.
        nbusy = dsum = 0
        wake = NEVER
        for ell in range(1, s + 1):
            ph = lv_phase[ell]
            if ph != _IDLE:
                nbusy += 1
                if ph == _WAIT:
                    due = lv_ip[ell] + mlen[ell] + delta
                    dsum += due
                else:
                    due = i
                if due < wake:
                    wake = due
        ops_last = self.ops_last
        ops_max = self.ops_max
        words_peak = self.words_peak
        b_peak = self.b_peak
        hit = False
        while True:
            preds, out = yield hit
            hit = False
            try:
                for pv in preds:
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
                    # every window: no term.  The history keeps it as is.
                    if pv < m:
                        loc += pv * rtab[off]
                    slot = i % H
                    hist_fp[slot] = loc
                    hist_pred[slot] = pv

                    # Phase A: base-prefix matches.  The DetCore's fast path
                    # (idle, nothing deferred, the first comparison succeeds)
                    # consumes one symbol, so the common case costs 9 ops.
                    prev = a_prev
                    consumed = suba.consumed
                    a_prev = step_pred(pv)
                    ops = 8 + suba.consumed - consumed
                    if prev and ((p0_last == pv) if 0 < pv < m0 else (p0_last == 0)):
                        w0 = q0.words
                        q0.push(i - m0 + 1, (bfp + bpw * loc) % p)
                        mq_words += q0.words - w0
                        ops += 3

                    # Phases B and C have work only while a candidate is in
                    # flight: a long distance to buffer, a buffered one, a
                    # queued match, a level past its deadline or scanning,
                    # or a tail check.  On any other arrival they would only
                    # test their conditions.  (`nbusy` first: with every
                    # level idle, `wake` is NEVER, a multi-digit int that the
                    # interpreter compares more slowly.)
                    if (
                        bcur is not None
                        or bbuf
                        or mq_words
                        or (nbusy and i > wake)
                        or c_ip >= 0
                        or m0 < pv < m
                    ):
                        # Phase Bdelta: buffer long-distance arrivals,
                        # distribute one level.
                        if m0 < pv < m:
                            bbuf.append((i, pv, bpw * rtab[off] % p))
                            lb = len(bbuf)
                            if lb > sigma:
                                raise StructuralViolation(
                                    f"distance buffer exceeded {sigma} entries"
                                )
                            if lb > b_peak:
                                b_peak = self.b_peak = lb
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

                        # Phase Bphi: one level per arrival advances its
                        # candidate check.
                        ell = 1 + i % s
                        ph = lv_phase[ell]
                        if ph == _IDLE:
                            if segs[ell - 1]:
                                ql = mq[ell - 1]
                                w0 = ql.words
                                got = ql.pop()
                                mq_words += ql.words - w0
                                lv_ip[ell] = got[0]
                                # The popped prefix fingerprint waits in lv_acc:
                                # the split below reads it once and replaces it
                                # with the running difference.
                                lv_acc[ell] = got[1]
                                ph = _WAIT
                                lv_phase[ell] = _WAIT
                                due = got[0] + mlen[ell] + delta
                                nbusy += 1
                                dsum += due
                                if due < wake:
                                    wake = due
                                ops += 2
                        if ph == _WAIT:
                            ip = lv_ip[ell]
                            ml = mlen[ell]
                            if i > ip + ml + delta:
                                idx = ip + ml - 1
                                if i - idx >= H:
                                    raise StructuralViolation(
                                        f"fingerprint history expired for level {ell}"
                                    )
                                # Prefix fingerprint through idx, and r^(idx + 1).
                                b = 2 * (idx // _BLOCK % nb)
                                fp = blocks[b] + blocks[b + 1] * hist_fp[idx % H]
                                lv_acc[ell] = (fp - lv_acc[ell]) % p
                                b = 2 * ((idx + 1) // _BLOCK % nb)
                                pw = blocks[b + 1] * rtab[(idx + 1) & mask]
                                lv_rlo[ell] = pw * gap_inv[ell] % p
                                # Scanning starts from the queue's first entry
                                # ever, so the first scan turn checks what the
                                # ring lost before the split as well.
                                lv_cur[ell] = 0
                                lv_end[ell] = dq_next[ell]
                                lv_phase[ell] = _SCAN
                                # wake is already at most this deadline, < i.
                                dsum -= ip + ml + delta
                                ops += 5
                        elif ph == _SCAN:
                            ip = lv_ip[ell]
                            lo = ip + mlen[ell - 1]
                            hi = ip + mlen[ell] - 1
                            cur = lv_cur[ell]
                            end = lv_end[ell]
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
                            stop = cur + _SCAN_BATCH
                            if stop > end:
                                stop = end
                            acc = lv_acc[ell]
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
                                    # Still in the history: i - hi <= 3*delta < H
                                    # by the deadline above.
                                    b = 2 * (hi // _BLOCK % nb)
                                    fp = blocks[b] + blocks[b + 1] * hist_fp[hi % H]
                                    qn.push(ip, fp % p)
                                    mq_words += qn.words - w0
                                    ops += 2
                                lv_phase[ell] = _IDLE
                                nbusy -= 1
                                # One level left: its deadline if it waits,
                                # 0 if it scans.  With two or more, wake is
                                # left as it is, which may keep phase B
                                # running until one more check completes.
                                if not nbusy:
                                    wake = NEVER
                                elif nbusy == 1:
                                    wake = dsum

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

                    ops_last = ops
                    if ops > ops_max:
                        ops_max = self.ops_max = ops
                        if ops > OP_BUDGET:
                            raise StructuralViolation(
                                f"arrival {i} used {ops} ops, budget {OP_BUDGET}"
                            )
                    words = static_words + 3 * len(bbuf) + mq_words + len(pending)
                    if words > words_peak:
                        words_peak = self.words_peak = words
            except BaseException:
                self.run = None
                raise
            finally:
                self.i = i
                self.loc = loc
                self.a_prev = a_prev
                self.bcur = bcur
                self.bnext = bnext
                self.c_ip = c_ip
                self.c_k = c_k
                self.mq_words = mq_words
                self.ops_last = ops_last

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
        return None, {"m": self.m, "sigma": self.sigma, "mode": "det", "det": self.det}
