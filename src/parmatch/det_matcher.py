"""Deterministic streaming matcher for dense alphabets.

A parameterized analogue of KMP run over compressed tables.  The state
that survives between arrivals is O(|alphabet| + rho) words: the current
matched length, a cursor into the run-length table of prefix periods, a
cursor into the first-occurrence list, the O(rho) encoding of pred(P),
and a bounded FIFO of deferred arrivals.

On a mismatch at matched length x the next candidate border is x minus
the period of the length-x prefix.  Walking candidates one at a time can
cost Theta(m), so candidates that provably fail are skipped in O(1):
within a run of equal periods the descent stays in one residue class,
and a candidate there whose pattern predecessor value is non-zero
inherits the previous failure (consequence of the zeros-then-constant
column shape).  The candidates that do get tested are the run-boundary
ones plus first occurrences, which is what the two cursors enumerate.

Per arrival the work is capped: at most 2 pattern shifts (tested
candidates beyond a char's first comparison), a fixed number of cursor
steps, and at most 3 consumed chars: a test carried over from the
previous arrival may commit one before the arrival's own 2.  Arrivals
that cannot be processed in time wait in the FIFO and are reported as
non-matches immediately; the buffer provably drains before the next true
match, which is asserted whenever a match is reported.

Most arrivals never reach that machinery.  With nothing deferred, the
fresh symbol is compared at once; when that fails and the next candidate
is the top of the current run, or a first occurrence found by at most one
step of the first-occurrence cursor, that candidate is tested inline as
well: the one-shift path.  Its outcome, cursors and counters are exactly
those the machinery would produce, which it enters otherwise, from the
phase reached.

`DetMatcher.feed` runs the engine over a chunk of predecessor distances
in one loop; `AlphabetFilter.scan_pred` knows them for a raw stream,
which then needs no dense table at all.  Over a dense alphabet, `step`
and `scan` are the shared front end of `predecessor.DenseFrontEnd`: a
last-occurrence table in lock-step with the engine, and a symbol outside
the alphabet entering as a fresh one.  Consecutive chunks continue one
stream, so `scan` and `step` may be mixed freely.
"""

from __future__ import annotations

from collections import deque

from .errors import StructuralViolation
from .pattern import (
    PatternProfile,
    build_compressed_pred,
    build_first_occurrences,
    build_run_table,
)
from .predecessor import DenseFrontEnd, LastOccurrence

# Per-arrival budgets.  SHIFTS is pinned by the deamortization argument;
# UNITS and CONSUMES only need to be constants comfortably above the
# amortized averages.
SHIFTS_PER_ARRIVAL = 2
UNITS_PER_ARRIVAL = 16
CONSUMES_PER_ARRIVAL = 2

_IDLE, _TEST, _SYNC, _SCAN = 0, 1, 2, 3


class DetCore:
    """The budgeted engine, fed global predecessor values.

    Decoupled from symbol handling so the randomized matcher can run it on
    the ladder base with the distances it is fed: its phase A calls
    `step_pred` on every arrival and reads only `consumed`, `pending` and
    `live_words()` back.  The tables, cursors, counters and
    the fast path all live here.
    """

    __slots__ = (
        "q",
        "rho",
        "runs",
        "occ",
        "cp_ks",
        "cp_cs",
        "pend_cap",
        "r",
        "run_i",
        "occ_i",
        "pending",
        "consumed",
        "phase",
        "g",
        "cand",
        "shifts_last",
        "units_last",
        "pend_peak",
    )

    def __init__(self, profile: PatternProfile, pend_cap: int | None = None):
        self.q = profile.m
        # The pattern's period: the shift after a full match, and the
        # residue modulus of the compressed pred(P).
        self.rho = rho = profile.rho
        # Only this engine reads these tables; the profile keeps none.
        cp = build_compressed_pred(None, rho, pred=profile.pred)
        self.runs = build_run_table(profile.periods)
        self.occ = build_first_occurrences(profile.pred)
        self.cp_ks = cp.ks
        self.cp_cs = cp.cs
        if pend_cap is None:
            pend_cap = 4 * (profile.sigma + rho) + 16
        self.pend_cap = pend_cap
        self.r = 0
        self.run_i = 0
        self.occ_i = 0
        self.pending: deque = deque()
        self.consumed = 0
        self.phase = _IDLE
        self.g = 0
        self.cand = 0
        self.shifts_last = 0
        self.units_last = 0
        self.pend_peak = 0

    def step_pred(self, pv: int) -> bool:
        """Feed the predecessor value of the arriving symbol.

        Returns whether a match of the whole pattern ends at this arrival.
        """
        pending = self.pending
        if self.phase == _IDLE and not pending:
            # Fast path: nothing deferred, test the fresh symbol directly.
            cand = self.r
            rho = self.rho
            j = cand % rho
            pv_p = 0 if cand // rho < self.cp_ks[j] else self.cp_cs[j]
            if (pv_p == pv) if 0 < pv <= cand else (pv_p == 0):
                self.consumed += 1
                self.shifts_last = 0
                self.units_last = 0
                r = cand + 1
                if r == self.q:
                    self.r = r - rho
                    return True
                # Cursor growth.  Here and in _TEST's commit r < q, and the
                # last run ends at q, so a run after run_i always exists.
                ri = self.run_i
                if r > self.runs[ri][2]:
                    self.run_i = ri + 1
                occ = self.occ
                oi = self.occ_i
                if oi + 1 < len(occ) and occ[oi + 1] <= r:
                    self.occ_i = oi + 1
                self.r = r
                return False
            # First comparison failed.  Do what _SYNC would do with the
            # cursors as they stand; when that leaves the first-occurrence
            # cursor to descend, take _SCAN's first unit, one step down.
            # When that names the next candidate (the top of the run, or a
            # first-occurrence probe at most one step below the cursor),
            # test it here, as _TEST would: the one-shift path.  Otherwise,
            # or when the test fails, go on in the machinery from the
            # phase reached.
            shifts = SHIFTS_PER_ARRIVAL
            units = UNITS_PER_ARRIVAL
            rho_s, lo, hi = self.runs[self.run_i]
            if lo > cand:
                phase = _SYNC  # the run cursor has to descend
            elif cand == hi:
                cand -= rho_s
                phase = _TEST
            else:
                xlow = cand - ((cand - lo) // rho_s) * rho_s
                f = self.occ[self.occ_i]
                phase = _TEST
                if not (f < cand and (f < xlow or (f - xlow) % rho_s == 0)):
                    oi = self.occ_i = self.occ_i - 1
                    units -= 1
                    f = self.occ[oi]
                    if not (f < cand and (f < xlow or (f - xlow) % rho_s == 0)):
                        phase = _SCAN  # the cursor descends further
                if phase == _TEST:
                    cand = f if f >= xlow else xlow - rho_s
            if phase == _TEST:
                shifts -= 1
                j = cand % rho
                pv_p = 0 if cand // rho < self.cp_ks[j] else self.cp_cs[j]
                if (pv_p == pv) if 0 < pv <= cand else (pv_p == 0):
                    # cand < r < q, so no match completes, and the run
                    # cursor stays: an idle core's cursors never lag
                    # behind r, and r does not rise.  After a
                    # first-occurrence step, the entry stepped past may lie
                    # at or below the new r: _TEST's growth rule then takes
                    # the cursor back up to it.  The working slots (g,
                    # cand) are set before they are next read, so they stay
                    # as they are.
                    self.consumed += 1
                    self.shifts_last = 1
                    self.units_last = UNITS_PER_ARRIVAL - units
                    r = cand + 1
                    if units != UNITS_PER_ARRIVAL:
                        oi = self.occ_i
                        if self.occ[oi + 1] <= r:
                            self.occ_i = oi + 1
                    self.r = r
                    return False
                phase = _SYNC
            self.g = pv
            self.cand = cand
            self.phase = phase
            consumes = CONSUMES_PER_ARRIVAL - 1
        else:
            pending.append(pv)
            if len(pending) > self.pend_cap:
                raise StructuralViolation(
                    f"deferral buffer exceeded capacity {self.pend_cap}"
                )
            if len(pending) > self.pend_peak:
                self.pend_peak = len(pending)
            shifts = SHIFTS_PER_ARRIVAL
            units = UNITS_PER_ARRIVAL
            consumes = CONSUMES_PER_ARRIVAL
            phase = self.phase

        runs = self.runs
        occ = self.occ
        q = self.q
        verdict = False

        while True:
            if phase == _IDLE:
                if not pending or consumes == 0:
                    break
                self.g = pending.popleft()
                consumes -= 1
                self.cand = self.r
                phase = _TEST
            elif phase == _TEST:
                cand = self.cand
                # A symbol is first compared at cand == r, and every later
                # candidate lies below r: each later one costs a shift.
                if cand != self.r:
                    if shifts == 0:
                        break
                    shifts -= 1
                j = cand % self.rho
                pv_p = 0 if cand // self.rho < self.cp_ks[j] else self.cp_cs[j]
                g = self.g
                ok = (pv_p == g) if 0 < g <= cand else (pv_p == 0)
                if ok:
                    self.consumed += 1
                    r = cand + 1
                    if r == q:
                        # Every arrival fed so far is consumed, pending, or
                        # (outside _IDLE) the one in flight, g.  So this one
                        # is the latest arrival exactly when nothing is
                        # pending behind it.
                        if pending:
                            raise StructuralViolation(
                                "match completed on a deferred arrival"
                            )
                        verdict = True
                        r -= self.rho
                    else:
                        # Cursor growth: r advanced by one, so each cursor
                        # moves right by at most one.
                        ri = self.run_i
                        if r > runs[ri][2]:
                            self.run_i = ri + 1
                        oi = self.occ_i
                        if oi + 1 < len(occ) and occ[oi + 1] <= r:
                            self.occ_i = oi + 1
                    self.r = r
                    phase = _IDLE
                else:
                    # cand == 0 cannot fail: two first occurrences match.
                    phase = _SYNC
            elif phase == _SYNC:
                cand = self.cand
                ri = self.run_i
                suspended = False
                while runs[ri][1] > cand:
                    if units == 0:
                        suspended = True
                        break
                    ri -= 1
                    units -= 1
                self.run_i = ri
                if suspended:
                    break
                rho_s, _, hi = runs[ri]
                if cand == hi:
                    # Top of a run: the relation that justifies skipping
                    # does not cover this successor, so test it.
                    self.cand = cand - rho_s
                    phase = _TEST
                else:
                    phase = _SCAN
            else:  # _SCAN
                # xlow, the lowest member of cand's chain in this run,
                # follows from cand and the run: the run cursor stays put
                # while the first-occurrence cursor descends.
                cand = self.cand
                srho, lo, _ = runs[self.run_i]
                xlow = lo + (cand - lo) % srho
                oi = self.occ_i
                while True:
                    if units == 0:
                        self.occ_i = oi
                        self.phase = _SCAN
                        self._finish(shifts, units)
                        return verdict
                    f = occ[oi]
                    if f >= cand:
                        oi -= 1
                        units -= 1
                    elif f < xlow:
                        # No testable first occurrence left in this run's
                        # descent: exit to the next run's chain member.
                        self.cand = xlow - srho
                        phase = _TEST
                        break
                    elif (f - xlow) % srho == 0:
                        self.cand = f
                        phase = _TEST
                        break
                    else:
                        oi -= 1
                        units -= 1
                self.occ_i = oi

        self.phase = phase
        self._finish(shifts, units)
        return verdict

    def _finish(self, shifts: int, units: int) -> None:
        self.shifts_last = SHIFTS_PER_ARRIVAL - shifts
        self.units_last = UNITS_PER_ARRIVAL - units

    def live_words(self) -> int:
        """Words held across arrivals (tables included, pattern excluded)."""
        return (
            len(self.pending)
            + 3 * len(self.runs)
            + len(self.occ)
            + 2 * self.rho
            + 16
        )


class DetMatcher(DenseFrontEnd):
    """Standalone deterministic matcher over a dense alphabet."""

    __slots__ = ("core", "tracker", "i", "sigma")

    def __init__(self, profile: PatternProfile):
        sigma = profile.sigma
        self.core = DetCore(profile)
        self.tracker = LastOccurrence(sigma)
        self.sigma = sigma
        self.i = -1

    def _arrive(self, pv: int) -> bool:
        self.i += 1
        return self.core.step_pred(pv)

    def _run(self, preds, out) -> None:
        step_pred = self.core.step_pred
        for i, pv in enumerate(preds, self.i + 1):
            self.i = i
            if step_pred(pv):
                out.append(i)

    def live_words(self) -> int:
        # The table's sigma last arrivals; a fed matcher's live in the
        # filter's sigma slots instead.
        return self.core.live_words() + self.sigma

    def live_words_peak(self) -> int:
        core = self.core
        return self.live_words() - len(core.pending) + core.pend_peak
