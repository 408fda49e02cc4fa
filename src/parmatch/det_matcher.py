"""Deterministic streaming matcher for dense alphabets.

A parameterized analogue of KMP run over compressed tables.  The state
that survives between arrivals is O(|alphabet| + rho) words: the current
matched length, a cursor into the run-length table of prefix periods, a
cursor into the first-occurrence list, the O(rho) encoding of pred(P),
a bounded FIFO of deferred arrivals, and a table for matched lengths
below a constant K.

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

Most arrivals never reach that machinery.  With nothing deferred, a
matched length r below K = 12 moves by a table: the next matched length
depends only on r and on the arrival's distance clipped at r, c = `v if
0 < v <= r else 0`, so it is entry r(r+1)/2 + c of a table of K(K+1)/2
bytes, the p-string KMP automaton of Idury and Schäffer below K.  Each
row is built in O(1) steps from the row of its failure link r -
periods[r], read at `c if c <= x else 0`.  A table arrival consumes one
symbol, counts no shift and no cursor unit, and never defers.  The
cursors are not kept below K: when the table hands the core to the fast
path at K, they take their values there.  A pattern of length q <= K is
the whole table, where a match is an entry of q.  At r >= K the fresh
symbol is compared at once, the fast path.  A failed comparison enters
the machinery as a busy core's arrival does, through the FIFO: popped at
once, it fails the same comparison at the current length and goes on
from _SYNC, so the machinery has one entrance.

Every arrival fed is consumed once, waits in the FIFO, or, outside
_IDLE, is the one in flight, so the core is idle with nothing pending
exactly when it has consumed every arrival fed: that count is its one
test of a free core.  So the machinery starts only at r >= K on a free
core, and once started it runs, below K too, until the core is free
again; the table takes over only then.  Every deferral falls inside
such a busy stretch, and a table arrival, which comes only with nothing
pending, neither adds to the backlog nor delays its draining: the
argument that the buffer drains before the next match is the
machinery's alone, as without the table, over busy stretches that each
start with an empty buffer.

The arrival logic is written once, as a generator that holds the tables,
cursors and counters in local variables and runs each chunk of distances
sent to it through the table, the fast path and the machinery.
`DetMatcher.feed` and `scan` send it a whole chunk, as the one int64
array the front end hands them; `step`, `step_pred` and the randomized
matcher's phase A send one arrival.  Phase A also sends a stretch of
arrivals where its phases B and C have nothing due as one chunk in stop
mode, which takes only table and fast-path arrivals: it returns right
after an arrival where a match ends (the arrival after it may push into
a queue, so it runs on its own), and before an arrival that finds the
core not free or whose first comparison fails at r >= K, which it leaves
unread for phase A to send on its own.  So each arrival a stop-mode
chunk takes consumes one symbol, and the count of symbols consumed tells
the caller how far it went.
A chunk comes as a list or as an int64 array.  Phase A sends a short
stretch as a list, and each piece of a long stretch as a view of its
chunk's array; `DetMatcher` sends every chunk as an array.  Free at r <
K, the core then looks for the first arrival at which the table would
reach K, the first whose last K distances read pred[:K]: a numpy filter
finds it, pruning the windows offset by offset, once the table, run from
r over the chunk's first K - 1 arrivals, has not reached K on a window
that starts before the chunk.  The arrivals before that window (before
the chunk's last K - 1, if none) are taken in one step, which consumes a
symbol for each, and r becomes 0; the rest of the chunk runs from a
list, the table path first over the next K - 1 arrivals.  No window of K
ends before them, so the longest suffix below K that p-matches a prefix
lies in them, and from 0 the table gives it; from 0 they can neither
reach K nor stop the chunk.  No match ends before them either, so the
step holds in stop mode or not.
The core and the randomized matcher run on one harness, `_Engine`: it
starts an engine's generator, which holds the engine only weakly, makes
each scalar that the class's `_STATE` names a read-only attribute of its
`state` record, and copies the engine.  The record is None while the
generator holds newer values, and the generator writes it back only when
one of those attributes is read or the engine copied, so no send pays
for a write-back; no program writes a running engine's state.  An
error, the deferral buffer's overflow say, writes the state back at the
arrival that raised and ends the stream: the core's `run` becomes an
`errors.Stopped`, and every later arrival raises `UsageError`.
`AlphabetFilter.scan_pred` knows the distances for a raw stream, which
then needs no dense table at all.
Over a dense alphabet, `step` and `scan` are the shared front end of
`predecessor.DenseFrontEnd`: a last-occurrence table, and a symbol
outside the alphabet entering as a fresh one.
Consecutive chunks continue one stream, so `scan` and `step` may be mixed
freely.
"""

from __future__ import annotations

import weakref
from collections import deque

import numpy as np

from .errors import Stopped, StructuralViolation
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
# Matched lengths below K move by a table of K(K+1)/2 bytes, which
# `live_words` counts as ceil(K(K+1)/16) words: 10 at K = 12.
K = 12

_IDLE, _TEST, _SYNC = 0, 1, 2


def _first_window(a, probes, head: int) -> int:
    """The first index t >= head of the int64 array `a` at which the
    window a[t - head : t + 1] holds, at each offset k of `probes`, a
    distance that reads `v if 0 < v <= k else 0` as its c; len(a) if no
    window does.  The windows are pruned offset by offset, as
    `oracle.naive_all_matches` does, so after the first the work follows
    the windows left."""
    n = len(a) - head
    s = None
    for k, c in probes:
        x = a[k : k + n] if s is None else a[s + k]
        ok = x == c if c else (x <= 0) | (x > k)
        s = np.flatnonzero(ok) if s is None else s[ok]
        if not len(s):
            return len(a)
    return head + (0 if s is None else int(s[0]))


class _Flush(Exception):
    """Thrown into an engine's generator: write its state record back."""


def _write_back(engine) -> None:
    """Write the state held by `engine`'s generator back to its `state`
    record, unless no arrival has run since the last write-back."""
    if engine.state is None:
        engine.run.throw(_Flush)


class _Live:
    """A read-only state attribute of an engine: entry k of its `state`
    record.  While a generator runs the engine, the value lives in the
    generator's locals, so a read writes them back first."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __get__(self, engine, owner=None):
        if engine is None:
            return self
        _write_back(engine)
        return engine.state[self.k]


class _Engine:
    """The harness of both engines, `DetCore` and `StreamMatcher`.

    An engine runs its arrivals in a generator, `_body`, that holds its
    state in locals.  The engine keeps the generator in its `run` slot
    (None until the first arrival, a `Stopped` after an error, which ends
    the stream), and its `state` record holds the generator's scalars,
    those that the class's own `_STATE` names, in that order, or None
    while the generator holds newer values.  The base makes each of those
    names a `_Live` attribute, which writes the generator back when read
    and cannot be written.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for k, name in enumerate(cls.__dict__.get("_STATE", ())):
            setattr(cls, name, _Live(k))

    def _start(self):
        # The engine holds its generator, so the generator holds the
        # engine only weakly: a strong reference would make a cycle, and
        # a dropped engine would wait for the cyclic collector instead of
        # going at once.
        run = self.run = type(self)._body(weakref.proxy(self))
        next(run)
        return run

    def __getstate__(self):
        """A generator cannot be copied: the state is written back, every
        slot is copied, and the copy starts its own generator from that
        record, unless the original is stopped, whose copy stays
        stopped."""
        _write_back(self)
        state = {k: getattr(self, k) for k in self.__slots__ if k != "__weakref__"}
        if type(self.run) is not Stopped:
            state["run"] = None
        return None, state


class DetCore(_Engine):
    """The budgeted engine, fed global predecessor values.

    Decoupled from symbol handling so the randomized matcher can run it on
    the ladder base with the distances it is fed: its phase A sends the
    core's generator one arrival, or a stretch, at a time and reads
    the verdict and the symbols consumed from each send, and `pending` and
    `live_words()` besides.  The tables, cursors, counters, the table
    path and the fast path all live here.

    Its generator and the scalars that `_STATE` names are kept by the
    `_Engine` harness.  `pend_cap`, the deferral buffer's capacity, is a
    plain attribute, read when the generator starts; it must be at least
    1, since every arrival that runs the shift machinery passes through
    the buffer, also on a free core.  It defaults to 4(sigma + rho) + 16.
    """

    # `i` is the index of the last arrival fed, counted from 0.
    _STATE = ("i", "r", "run_i", "occ_i", "consumed", "phase", "g", "cand",
              "shifts_last", "units_last", "pend_peak")

    __slots__ = (
        "q",
        "rho",
        "runs",
        "occ",
        "cp_ks",
        "cp_cs",
        "table",
        "pending",
        "pend_cap",
        "run",
        "state",
        "__weakref__",
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
        # The automaton below min(K, q): at r(r+1)/2 + c, row r holds the
        # matched length after an arrival whose distance, clipped at r, is
        # c.  Row 0 takes every arrival to 1.  Row r is the row of its
        # failure link x = r - periods[r], read at `c if c <= x else 0`,
        # except at c = pred[r], which extends the match to r + 1.
        periods = profile.periods
        table = bytearray(b"\x01")
        for r in range(1, min(K, self.q)):
            x = r - periods[r]
            row = x * (x + 1) // 2
            table += table[row : row + x + 1] + table[row : row + 1] * (r - x)
            table[r * (r + 1) // 2 + profile.pred[r]] = r + 1
        self.table = bytes(table)
        if pend_cap is None:
            pend_cap = 4 * (profile.sigma + rho) + 16
        self.pending: deque = deque()
        self.run = None
        self.pend_cap = pend_cap
        self.state = (-1, 0, 0, 0, 0, _IDLE, 0, 0, 0, 0, 0)

    def step_pred(self, pv: int) -> bool:
        """Feed the predecessor value of the arriving symbol.

        Returns whether a match of the whole pattern ends at this arrival.
        """
        return (self.run or self._start()).send(pv) < 0

    def _body(self):
        """The arrival logic, run over each arrival's distance sent, or
        each chunk of distances sent as (preds, out, stop).

        `preds` is a list or an int64 array.  A chunk appends the index of
        each arrival at which a match ends to `out`, unless it is None.
        With `stop` true it returns right after the first such arrival,
        and right before an arrival that would run the shift machinery,
        which is left unread: `i` stays before it and nothing else
        changes.  The state is held in
        locals from the start, and written back to the `state` record only
        when `_Flush` is thrown in.  An error writes it back too, with `i`
        at the arrival that raised, and ends the stream: `run` becomes a
        `Stopped`.  `_Engine._start` runs it with `self` a weak proxy.
        """
        q = self.q
        rho = self.rho
        runs = self.runs
        occ = self.occ
        last_occ = len(occ) - 1
        cp_ks = self.cp_ks
        cp_cs = self.cp_cs
        table = self.table
        top = min(K, q)
        head = top - 1
        rows = tuple(r * (r + 1) // 2 for r in range(top))
        # pred[:top] read off the table, where row x goes to x + 1 at
        # c = pred[x]: a window of `top` arrivals takes the table from 0 to
        # top exactly when its distances read pred[:top].  Offset 0 reads
        # 0 from any distance; the others are probed nonzero ones first,
        # which fewer windows pass.
        probes = sorted(
            ((x, table.index(x + 1, rows[x]) - rows[x]) for x in range(1, top)),
            key=lambda probe: probe[1] == 0,
        )
        # The cursors' values at r == K, where the fast path takes over.
        run_k = sum(run[2] < K for run in runs[:K])
        occ_k = sum(f <= K for f in occ[1 : K + 1])
        pending = self.pending
        pend_cap = self.pend_cap
        (i, r, run_i, occ_i, consumed, phase, g, cand,
         shifts_last, units_last, pend_peak) = self.state
        synced = True
        # An exhausted iterator: the chunk when none is being run.
        chunk = drained = iter(())
        hit = False
        while True:
            # Entered again after each write-back.
            try:
                while True:
                    # The next arrival: from the chunk being run, or else
                    # from the next send, which is one arrival's distance
                    # or a chunk (preds, out, stop).  A send is answered
                    # with the count of symbols consumed so far, negated
                    # when a match ended during the send (a match consumes
                    # one).
                    for pv in chunk:
                        break
                    else:
                        pv = yield -consumed if hit else consumed
                        hit = False
                        if synced:
                            synced = self.state = None
                        out = stop = None
                        if type(pv) is tuple:
                            chunk, out, stop = pv
                            if type(chunk) is np.ndarray:
                                # The chunk's distances as an int64 array:
                                # free below top, take the arrivals before
                                # the first window of top in one step (see
                                # the module docstring), and the rest as a
                                # list.  A window that starts before the
                                # chunk ends at one of its first `head`
                                # arrivals, which the table runs from r.
                                t = 0
                                if consumed == i + 1 and r < top < len(chunk):
                                    x = r
                                    for v in chunk[:head].tolist():
                                        x = table[rows[x] + (v if 0 < v <= x else 0)]
                                        if x == top:
                                            break
                                    else:
                                        # No window of top ends before the
                                        # first one found, so the longest
                                        # suffix below top that p-matches a
                                        # prefix lies in the `head` arrivals
                                        # before it: the table path runs
                                        # them from 0, and cannot reach top
                                        # on them.
                                        t = _first_window(chunk, probes, head) - head
                                        i += t
                                        consumed += t
                                        r = 0
                                chunk = chunk[t:].tolist()
                            chunk = iter(chunk)
                            continue
                    i += 1
                    if consumed == i:
                        if r < top:
                            # Table path: below K the next matched length
                            # is the automaton's, read at r and the
                            # distance clipped at r.
                            r = table[rows[r] + (pv if 0 < pv <= r else 0)]
                            consumed += 1
                            shifts_last = units_last = 0
                            if r == top:
                                if r < q:
                                    # At K the fast path takes over, with
                                    # the cursors at their values there.
                                    run_i = run_k
                                    occ_i = occ_k
                                else:
                                    r -= rho
                                    hit = True
                                    if out is not None:
                                        out.append(i)
                                    if stop:
                                        chunk = drained
                            continue
                        # Fast path, at r >= K: test the fresh symbol
                        # directly.
                        j = r % rho
                        pv_p = 0 if r // rho < cp_ks[j] else cp_cs[j]
                        if (pv_p == pv) if 0 < pv <= r else (pv_p == 0):
                            consumed += 1
                            shifts_last = units_last = 0
                            r += 1
                            if r < q:
                                # Cursor growth.  Here and in _TEST's
                                # commit r < q, and the last run ends
                                # at q, so a run after run_i always
                                # exists.
                                if r > runs[run_i][2]:
                                    run_i += 1
                                if occ_i < last_occ and occ[occ_i + 1] <= r:
                                    occ_i += 1
                                continue
                            r -= rho
                            hit = True
                            if out is not None:
                                out.append(i)
                            if stop:
                                chunk = drained
                            continue
                    # The core has not consumed every arrival before
                    # this one, or the first comparison failed at r >= K:
                    # the arrival joins the deferral buffer and runs the
                    # shift machinery, unless a chunk in stop mode leaves
                    # it unread.  On a free core the machinery pops it at
                    # once, fails the same comparison at cand = r and goes
                    # on from _SYNC.
                    if stop:
                        i -= 1
                        chunk = drained
                        continue
                    pending.append(pv)
                    if len(pending) > pend_cap:
                        raise StructuralViolation(
                            f"deferral buffer exceeded capacity {pend_cap}"
                        )
                    consumes = CONSUMES_PER_ARRIVAL
                    shifts = SHIFTS_PER_ARRIVAL
                    units = UNITS_PER_ARRIVAL

                    # The shift machinery, from the phase reached.
                    while True:
                        if phase == _IDLE:
                            if not pending or consumes == 0:
                                break
                            g = pending.popleft()
                            consumes -= 1
                            cand = r
                            phase = _TEST
                        elif phase == _TEST:
                            # A symbol is first compared at cand == r,
                            # and every later candidate lies below r:
                            # each later one costs a shift.
                            if cand != r:
                                if shifts == 0:
                                    break
                                shifts -= 1
                            j = cand % rho
                            pv_p = 0 if cand // rho < cp_ks[j] else cp_cs[j]
                            if (pv_p == g) if 0 < g <= cand else (pv_p == 0):
                                consumed += 1
                                r = cand + 1
                                if r == q:
                                    # Every arrival fed so far is
                                    # consumed, pending, or (outside
                                    # _IDLE) the one in flight, g.  So
                                    # this one is the latest arrival
                                    # exactly when nothing is pending
                                    # behind it.
                                    if pending:
                                        raise StructuralViolation(
                                            "match completed on a deferred arrival"
                                        )
                                    r -= rho
                                    hit = True
                                    if out is not None:
                                        out.append(i)
                                else:
                                    # Cursor growth: r advanced by one,
                                    # so each cursor moves right by at
                                    # most one.
                                    if r > runs[run_i][2]:
                                        run_i += 1
                                    if occ_i < last_occ and occ[occ_i + 1] <= r:
                                        occ_i += 1
                                phase = _IDLE
                            else:
                                # cand == 0 cannot fail: two first
                                # occurrences match.
                                phase = _SYNC
                        else:  # _SYNC
                            while units and runs[run_i][1] > cand:
                                run_i -= 1
                                units -= 1
                            rho_s, lo, hi = runs[run_i]
                            if lo > cand:
                                break  # out of units: go on next arrival
                            if cand == hi:
                                # Top of a run: the relation that
                                # justifies skipping does not cover this
                                # successor, so test it.
                                cand -= rho_s
                                phase = _TEST
                                continue
                            # The first-occurrence scan.  xlow, the
                            # lowest member of cand's chain in this run,
                            # follows from cand and the run: the run
                            # cursor stays put while the first-occurrence
                            # cursor descends.  Out of units, the next
                            # arrival resumes here: the walk above then
                            # moves over no run and costs nothing.
                            xlow = lo + (cand - lo) % rho_s
                            while units:
                                f = occ[occ_i]
                                if f < cand:
                                    if f < xlow:
                                        # No testable first occurrence
                                        # left in this run's descent:
                                        # exit to the next run's chain
                                        # member.
                                        cand = xlow - rho_s
                                        phase = _TEST
                                        break
                                    if (f - xlow) % rho_s == 0:
                                        cand = f
                                        phase = _TEST
                                        break
                                occ_i -= 1
                                units -= 1
                            else:
                                break  # out of units: go on next arrival
                    shifts_last = SHIFTS_PER_ARRIVAL - shifts
                    units_last = UNITS_PER_ARRIVAL - units
                    if len(pending) > pend_peak:
                        pend_peak = len(pending)
            except GeneratorExit:
                # Closed as its core is freed: there is nothing to write to.
                raise
            except BaseException as e:
                self.state = (i, r, run_i, occ_i, consumed, phase, g, cand,
                              shifts_last, units_last, pend_peak)
                synced = True
                if e.__class__ is not _Flush:
                    self.run = Stopped(e)
                    raise

    def live_words(self) -> int:
        """Words held across arrivals (tables included, pattern excluded)."""
        return (
            len(self.pending)
            + (len(self.table) + 7) // 8
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
        # `step_pred` written out: one call fewer on every `step`.  A
        # stopped core refuses the arrival, so `i` stays the core's.
        self.i += 1
        core = self.core
        try:
            return (core.run or core._start()).send(pv) < 0
        except BaseException:
            self.i = core.i
            raise

    def _run(self, arr, out) -> None:
        # The core takes the array, through its bulk step below K.  It
        # counts the arrivals it takes, also when an error stops the chunk.
        core = self.core
        try:
            (core.run or core._start()).send((arr, out, None))
        finally:
            self.i = core.i

    def live_words(self) -> int:
        # The table's sigma last arrivals; a fed matcher's live in the
        # filter's sigma slots instead.
        return self.core.live_words() + self.sigma

    def live_words_peak(self) -> int:
        core = self.core
        return self.live_words() - len(core.pending) + core.pend_peak
