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
steps, and at most 2 consumed chars.  Arrivals that cannot be processed
in time wait in the FIFO and are reported as non-matches immediately;
the buffer provably drains before the next true match, which is asserted
whenever a match is reported.

`DetMatcher.step` handles one arrival; `DetMatcher.scan` feeds a chunk
through `step` and collects the match ends.  Consecutive chunks continue
one stream, so `scan` and `step` may be mixed freely.
"""

from __future__ import annotations

from collections import deque

from .errors import StructuralViolation
from .pattern import PatternProfile
from .predecessor import LastOccurrence

# Per-arrival budgets.  SHIFTS is pinned by the deamortization argument;
# UNITS and CONSUMES only need to be constants comfortably above the
# amortized averages.
SHIFTS_PER_ARRIVAL = 2
UNITS_PER_ARRIVAL = 16
CONSUMES_PER_ARRIVAL = 2

_IDLE, _TEST, _SYNC, _SCAN = 0, 1, 2, 3


class DetCore:
    """The budgeted engine, fed global predecessor values.

    Decoupled from symbol handling so the randomized matcher can embed it
    and share one last-occurrence tracker.
    """

    __slots__ = (
        "q",
        "rho_full",
        "runs",
        "occ",
        "cp_rho",
        "cp_ks",
        "cp_cs",
        "pend_cap",
        "r",
        "run_i",
        "occ_i",
        "pending",
        "appended",
        "consumed",
        "phase",
        "g",
        "cand",
        "xlow",
        "srho",
        "first_test",
        "shifts_last",
        "units_last",
        "pend_peak",
    )

    def __init__(self, profile: PatternProfile, pend_cap: int):
        self.q = profile.m
        self.rho_full = profile.rho
        # The profile builds each of these three tables when it is read.
        self.runs = profile.run_table
        self.occ = profile.first_occ
        cp = profile.compressed
        self.cp_rho = cp.rho
        self.cp_ks = cp.ks
        self.cp_cs = cp.cs
        self.pend_cap = pend_cap
        self.r = 0
        self.run_i = 0
        self.occ_i = 0
        self.pending: deque = deque()
        self.appended = 0
        self.consumed = 0
        self.phase = _IDLE
        self.g = 0
        self.cand = 0
        self.xlow = 0
        self.srho = 1
        self.first_test = True
        self.shifts_last = 0
        self.units_last = 0
        self.pend_peak = 0

    def step_pred(self, pv: int) -> bool:
        """Feed the predecessor value of the arriving symbol.

        Returns whether a match of the whole pattern ends at this arrival.
        """
        self.appended += 1
        arrival_seq = self.appended - 1
        pending = self.pending
        if self.phase == _IDLE and not pending:
            # Fast path: nothing deferred, test the fresh symbol directly.
            cand = self.r
            j = cand % self.cp_rho
            pv_p = 0 if cand // self.cp_rho < self.cp_ks[j] else self.cp_cs[j]
            if (pv_p == pv) if 0 < pv <= cand else (pv_p == 0):
                self.consumed += 1
                self.shifts_last = 0
                self.units_last = 0
                r = cand + 1
                if r == self.q:
                    self.r = r - self.rho_full
                    return True
                runs = self.runs
                ri = self.run_i
                if r > runs[ri][2] and ri + 1 < len(runs):
                    self.run_i = ri + 1
                occ = self.occ
                oi = self.occ_i
                if oi + 1 < len(occ) and occ[oi + 1] <= r:
                    self.occ_i = oi + 1
                self.r = r
                return False
            # First comparison failed: enter the shift machinery.
            self.g = pv
            self.first_test = False
            self.phase = _SYNC
            shifts = SHIFTS_PER_ARRIVAL
            units = UNITS_PER_ARRIVAL
            consumes = CONSUMES_PER_ARRIVAL - 1
            phase = _SYNC
            self.cand = cand
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
                self.first_test = True
                self.cand = self.r
                phase = _TEST
            elif phase == _TEST:
                if not self.first_test:
                    if shifts == 0:
                        break
                    shifts -= 1
                cand = self.cand
                j = cand % self.cp_rho
                pv_p = 0 if cand // self.cp_rho < self.cp_ks[j] else self.cp_cs[j]
                g = self.g
                ok = (pv_p == g) if 0 < g <= cand else (pv_p == 0)
                if ok:
                    seq = self.consumed
                    self.consumed += 1
                    r = cand + 1
                    if r == q:
                        if seq != arrival_seq or pending:
                            raise StructuralViolation(
                                "match completed on a deferred arrival"
                            )
                        verdict = True
                        r -= self.rho_full
                    else:
                        # Cursor growth: r advanced by one, so each cursor
                        # moves right by at most one.
                        ri = self.run_i
                        if r > runs[ri][2] and ri + 1 < len(runs):
                            self.run_i = ri + 1
                        oi = self.occ_i
                        if oi + 1 < len(occ) and occ[oi + 1] <= r:
                            self.occ_i = oi + 1
                    self.r = r
                    phase = _IDLE
                else:
                    self.first_test = False
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
                rho_s, lo, hi = runs[ri]
                if cand == hi:
                    # Top of a run: the relation that justifies skipping
                    # does not cover this successor, so test it.
                    self.cand = cand - rho_s
                    phase = _TEST
                else:
                    self.xlow = cand - ((cand - lo) // rho_s) * rho_s
                    self.srho = rho_s
                    phase = _SCAN
            else:  # _SCAN
                cand = self.cand
                xlow = self.xlow
                srho = self.srho
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
            + 2 * self.cp_rho
            + 16
        )


class DetMatcher:
    """Standalone deterministic matcher over a dense alphabet."""

    __slots__ = ("core", "tracker", "i", "sigma")

    def __init__(self, profile: PatternProfile):
        sigma = profile.sigma
        cap = 4 * (sigma + profile.rho) + 16
        self.core = DetCore(profile, pend_cap=cap)
        self.tracker = LastOccurrence(sigma)
        self.sigma = sigma
        self.i = -1

    def step(self, sym: int) -> bool:
        self.i += 1
        pv = self.tracker.step(sym, self.i)
        return self.core.step_pred(pv)

    def scan(self, text, out=None) -> list[int]:
        """Match end indices over the next chunk of the stream.

        `step` per symbol; consecutive calls continue one stream, and may
        be mixed with `step`.  The indices are appended to `out` (a new
        list by default), which is returned; when an error stops the
        chunk, `out` holds the matches that ended before it.
        """
        if out is None:
            out = []
        step = self.step
        for sym in text:
            if step(sym):
                out.append(self.i)
        return out

    def live_words(self) -> int:
        return self.core.live_words() + self.sigma
