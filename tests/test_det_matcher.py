import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parmatch import det_matcher
from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch.det_matcher import _IDLE, K, DetCore, DetMatcher, _first_window, _Live
from parmatch.errors import AlphabetError, Stopped, StructuralViolation, UsageError
from parmatch.gen import make_instance
from parmatch.oracle import naive_all_matches, naive_pmatch
from parmatch.pattern import build_profile
from parmatch.predecessor import NEVER, LastOccurrence, pred_string
from parmatch.stream_matcher import StreamMatcher

from cores import core_state
from misses import near_misses


def starts(pattern, sigma, text):
    m = len(pattern)
    return [e - m + 1 for e in DetMatcher(build_profile(pattern, sigma)).scan(text)]


def test_simple_examples():
    dm = DetMatcher(build_profile([0, 1], 2))
    assert dm.scan([0, 0, 1, 0, 1]) == [2, 3, 4]
    dm = DetMatcher(build_profile([0, 0], 2))
    assert dm.scan([1, 1, 1, 1]) == [1, 2, 3]


def test_window_example():
    # abbca vs bddbb: no match anywhere in the 5-symbol window
    assert starts([0, 1, 1, 2, 0], 4, [1, 3, 3, 1, 1]) == []
    # abbca vs bddcb: match
    assert starts([0, 1, 1, 2, 0], 4, [1, 3, 3, 2, 1]) == [0]


def test_single_symbol_pattern_matches_everywhere():
    dm = DetMatcher(build_profile([0], 3))
    assert dm.scan([2, 0, 1, 1]) == [0, 1, 2, 3]


def test_reports_nothing_before_full_window():
    dm = DetMatcher(build_profile([0, 1, 0], 2))
    assert dm.step(0) is False
    assert dm.step(1) is False


def test_profile_runs_for_aabb():
    prof = build_profile([0, 0, 1, 1], 2)
    assert DetCore(prof, pend_cap=16).runs == [(1, 1, 2), (2, 3, 4)]


@settings(max_examples=250)
@given(st.data())
def test_oracle_equivalence_random(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**9)))
    sigma = rng.choice([1, 2, 4, 8])
    m = rng.randint(1, 60)
    n = rng.randint(m, 8 * m)
    pattern = [rng.randrange(sigma) for _ in range(m)]
    text = [rng.randrange(sigma) for _ in range(n)]
    assert starts(pattern, sigma, text) == naive_all_matches(pattern, text)


def test_oracle_equivalence_structured():
    rng = random.Random(42)
    for t in range(300):
        kind = ("random", "planted", "periodic")[t % 3]
        sigma = rng.choice([1, 2, 4, 8, 16])
        m = rng.randint(1, 100)
        inst = make_instance(kind, m, 10 * m, sigma, seed=rng.randrange(2**31))
        assert starts(inst.pattern, sigma, inst.text) == naive_all_matches(
            inst.pattern, inst.text
        ), (kind, sigma, m, inst.seed)


def test_the_table_is_the_automaton_below_k():
    # Entry r(r+1)/2 + c of the table, for r < min(K, m) and c <= r, is the
    # longest prefix of the pattern that p-matches a suffix of a window
    # p-matching its length-r prefix extended by a symbol at clipped
    # distance c: by the oracle's p-match on symbols, where the window
    # pattern[:r] can be followed by such a symbol, and otherwise by the
    # window-relative reading of its predecessor string.  With m <= K the
    # table is the whole automaton, and an entry of m is a match.
    rng = random.Random(23)
    reached = 0
    for t in range(300):
        sigma = rng.randint(2, 8)
        m = rng.randint(1, 40)
        if t % 2:
            block = [rng.randrange(sigma) for _ in range(rng.randint(1, 6))]
            pattern = [block[j % len(block)] for j in range(m)]
        else:
            pattern = [rng.randrange(sigma) for _ in range(m)]
        core = DetCore(build_profile(pattern, sigma))
        top = min(K, m)
        assert len(core.table) == top * (top + 1) // 2
        pred = pred_string(pattern)
        for r in range(top):
            window = pattern[:r]
            for c in range(r + 1):
                if c == 0:
                    ext = window + [sigma]
                elif window[r - c] not in window[r - c + 1 :]:
                    ext = window + [window[r - c]]
                else:
                    ext = None
                lengths = range(min(r + 1, m), 0, -1)
                if ext is not None:
                    want = next(n for n in lengths if naive_pmatch(ext[r + 1 - n :], pattern[:n]))
                else:
                    ext = pred[:r] + [c]
                    want = next(
                        n
                        for n in lengths
                        if [v if v <= k else 0 for k, v in enumerate(ext[r + 1 - n :])]
                        == pred[:n]
                    )
                assert core.table[r * (r + 1) // 2 + c] == want, (pattern, r, c)
                reached += want == m
    assert reached > 0


def test_shift_budget_and_buffer():
    rng = random.Random(9)
    for kind in ("random", "periodic", "planted"):
        inst = make_instance(kind, 80, 1200, 3, seed=rng.randrange(2**31))
        dm = DetMatcher(build_profile(inst.pattern, 3))
        max_shifts = 0
        for sym in inst.text:
            dm.step(sym)
            if dm.core.shifts_last > max_shifts:
                max_shifts = dm.core.shifts_last
        assert max_shifts <= 2
        assert dm.core.pend_peak <= 4 * (3 + 80) + 16


def test_live_words_independent_of_m_at_fixed_period():
    # Doubling m at a fixed period must not change the footprint.
    text = [0, 1] * 400
    small = DetMatcher(build_profile([0] * 100, 2))
    large = DetMatcher(build_profile([0] * 200, 2))
    small.scan(text)
    large.scan(text)
    assert small.live_words() == large.live_words()

    rng = random.Random(8)
    block = [rng.randrange(3) for _ in range(10)]
    text = [rng.randrange(3) for _ in range(2000)]
    small = DetMatcher(build_profile([block[j % 10] for j in range(400)], 3))
    large = DetMatcher(build_profile([block[j % 10] for j in range(800)], 3))
    small.scan(text)
    large.scan(text)
    assert small.live_words() == large.live_words()


def det_state(dm):
    """Everything a deterministic matcher carries between arrivals."""
    return {
        "i": dm.i,
        "table": None if dm.tracker is None else list(dm.tracker.table),
        "core": core_state(dm.core),
    }


def zipf_tokens(n, m, seed, plants=6):
    """Zipf-like wide token IDs with relabelled copies of an 8-ID pattern."""
    rng = random.Random(seed)
    vocab = rng.sample(range(2**32), 3000)
    text = rng.choices(vocab, [1 / (k + 1) for k in range(len(vocab))], k=n)
    ids = rng.sample(vocab, 8)
    pattern = [rng.choice(ids) for _ in range(m)]
    for _ in range(plants):
        relabel = dict(zip(ids, rng.sample(vocab, 8)))
        at = rng.randrange(n - m + 1)
        text[at : at + m] = [relabel[x] for x in pattern]
    return pattern, text


# (kind, m, n, sigma, seed, and the seed of 3 near misses, or None).
DET_INSTANCES = {
    "random": ("random", 300, 6000, 2, 1, None),
    "periodic": ("periodic", 1000, 8000, 3, 3, None),
    "planted": ("planted", 1500, 9000, 4, 5, None),
    "planted_binary": ("planted", 600, 6000, 2, 6, 3),
}


def det_instance(name):
    """(dense pattern, sigma, symbols fed to the matcher, match starts).

    The near misses make a comparison fail at a matched length of K or
    more, where the shift machinery runs; the zipf tokens get 3 as well.
    """
    if name == "zipf":
        raw_pattern, raw_text = zipf_tokens(20000, 64, seed=7)
        raw_text = near_misses(raw_pattern, raw_text, sorted(set(raw_text)), 7, 3)
        dense, distinct = densify_pattern(raw_pattern)
        f = AlphabetFilter(distinct, len(dense))
        codes = [f.step(x) for x in raw_text]
        return dense, distinct + 1, codes, naive_all_matches(raw_pattern, raw_text)
    kind, m, n, sigma, seed, misses = DET_INSTANCES[name]
    inst = make_instance(kind, m, n, sigma, seed=seed)
    text = inst.text
    if misses is not None:
        text = near_misses(inst.pattern, text, range(sigma), misses, 3)
    return inst.pattern, sigma, text, naive_all_matches(inst.pattern, text)


@pytest.mark.parametrize("name", [*DET_INSTANCES, "zipf"])
def test_scan_chunks_equal_step(name):
    # A matcher fed chunk by chunk through scan and one stepped through
    # the same chunks agree on every answer and on their whole state
    # after each chunk.
    pattern, sigma, text, want = det_instance(name)
    m, n = len(pattern), len(text)
    want = [s + m - 1 for s in want]
    slow = 0
    for chunk in (1, 7, 4096, n):
        stepped = DetMatcher(build_profile(pattern, sigma))
        scanned = DetMatcher(build_profile(pattern, sigma))
        by_step, by_scan = [], []
        for k in range(0, n, chunk):
            piece = text[k : k + chunk]
            for j, sym in enumerate(piece):
                if stepped.step(sym):
                    by_step.append(k + j)
                slow += stepped.core.shifts_last > 0
            by_scan += scanned.scan(piece)
            assert det_state(scanned) == det_state(stepped), (chunk, k)
        assert by_step == by_scan == want, chunk
    # Each instance leaves the fast path; the planted ones defer arrivals.
    assert slow > 0 or name == "periodic"
    if name.startswith("planted"):
        assert stepped.core.pend_peak > 0
    if name in ("periodic", "zipf"):
        assert want


def test_chunks_equal_steps_on_a_stream_that_crosses_k():
    # A stream that rises through K, where the table hands the core to the
    # fast path with the cursors set for K; fails a first comparison
    # there, into the shift machinery; drops below K and mismatches at the
    # next arrival; and once leaves the machinery busy below K.  A matcher
    # fed it in chunks of any size and one stepped through the same
    # chunks agree on every answer and, after each chunk, on their whole
    # state.
    rng = random.Random(4)
    pattern = [rng.randrange(4) for _ in range(30)]
    text = near_misses(pattern, [rng.randrange(4) for _ in range(400)], range(4), 4, 8)
    text[200:230] = pattern
    want = [s + 29 for s in naive_all_matches(pattern, text)]
    core = DetMatcher(build_profile(pattern, 4)).core
    tracker = LastOccurrence(4)
    rises = fails = misses_after_drop = busy_below = 0
    dropped = False
    for j, sym in enumerate(text):
        idle = core.phase == _IDLE and not core.pending
        r, consumed = core.r, core.consumed
        core.step_pred(tracker.step(sym, j))
        grew = core.consumed == consumed + 1 and core.r == r + 1
        failed = core.consumed == consumed or core.shifts_last > 0
        misses_after_drop += dropped and not grew
        dropped = r >= K > core.r
        rises += r < K <= core.r
        fails += idle and r >= K and failed
        busy_below += not idle and r < K
    assert (rises, fails, misses_after_drop, busy_below) == (8, 7, 6, 1)
    for chunk in (1, 2, 3, 5, 7, len(text)):
        stepped = DetMatcher(build_profile(pattern, 4))
        scanned = DetMatcher(build_profile(pattern, 4))
        by_step, by_scan = [], []
        for k in range(0, len(text), chunk):
            piece = text[k : k + chunk]
            by_step += [k + j for j, sym in enumerate(piece) if stepped.step(sym)]
            by_scan += scanned.scan(piece)
            assert det_state(scanned) == det_state(stepped), (chunk, k)
        assert by_step == by_scan == want != [], chunk


def test_scan_rejects_a_symbol_like_step():
    pattern, sigma, text, _ = det_instance("planted")
    bad = 4205  # arrives while earlier arrivals are deferred
    text = list(text)
    text[bad] = sigma
    stepped = DetMatcher(build_profile(pattern, sigma))
    with pytest.raises(AlphabetError) as by_step:
        for sym in text:
            stepped.step(sym)
    scanned = DetMatcher(build_profile(pattern, sigma))
    scanned.scan(text[:4190])
    with pytest.raises(AlphabetError) as by_scan:
        scanned.scan(text[4190:4300])
    assert by_step.value.index == by_scan.value.index == bad
    assert scanned.i == bad and scanned.core.pending
    assert det_state(scanned) == det_state(stepped)
    # The stream goes on after the rejected symbol, through either path.
    rest = text[bad + 1 :]
    tail = [bad + 1 + j for j, sym in enumerate(rest) if stepped.step(sym)]
    assert scanned.scan(rest) == tail
    assert det_state(scanned) == det_state(stepped)


def test_scan_keeps_matches_found_before_an_error():
    pattern, sigma, text, want = det_instance("periodic")
    end = want[1] + len(pattern) - 1
    text = list(text)
    text[end + 5] = -1
    dm = DetMatcher(build_profile(pattern, sigma))
    dm.scan(text[: end - 10])
    ends = []
    with pytest.raises(AlphabetError):
        dm.scan(text[end - 10 : end + 20], ends)
    assert ends == [end]


def test_each_arrival_agrees_with_the_oracle_on_both_sides_of_k():
    # Per arrival, on random and periodic streams with near misses: an
    # idle core below K takes one symbol by the table, with no shift and
    # no cursor unit, and defers nothing; at K or above, a first
    # comparison that fails enters the shift machinery.  A wrong shortcut
    # can keep every answer right and only cost more, so the counts of
    # both kinds of arrival, and the totals of the work done and of the
    # cursors, are pinned.
    rng = random.Random(17)
    table = entered = 0
    totals = dict.fromkeys(("shifts", "units", "run_i", "occ_i", "pending"), 0)
    for t in range(240):
        kind = ("random", "periodic")[t % 2]
        sigma = rng.randint(1, 6)
        m = rng.randint(1, 60)
        inst = make_instance(kind, m, 8 * m, sigma, seed=rng.randrange(2**31))
        text = inst.text
        if m > K and sigma > 1:
            text = near_misses(inst.pattern, text, range(sigma), t, 2)
        ends = {s + m - 1 for s in naive_all_matches(inst.pattern, text)}
        dm = DetMatcher(build_profile(inst.pattern, sigma))
        core = dm.core
        for j, sym in enumerate(text):
            idle = core.phase == _IDLE and not core.pending
            r = core.r
            consumed = core.consumed
            assert dm.step(sym) == (j in ends), (t, j)
            took = core.consumed - consumed
            if idle and r < K:
                assert (took, core.shifts_last, core.units_last) == (1, 0, 0), (t, j)
                table += 1
            entered += idle and r >= K and (took == 0 or core.shifts_last > 0)
            totals["shifts"] += core.shifts_last
            totals["units"] += core.units_last
            totals["run_i"] += core.run_i
            totals["occ_i"] += core.occ_i
            totals["pending"] += len(core.pending)
    assert (table, entered) == (28286, 420)
    assert totals == {
        "shifts": 904, "units": 1801, "run_i": 133818, "occ_i": 70577, "pending": 6
    }


@pytest.mark.parametrize(
    "kind, m, seed, pinned",
    [
        ("long_gap", 2100, 8, (0, 66, 573, 459715, 13155, 929)),
        ("planted", 3000, 5, (0, 154, 2186, 6715781, 26020, 10019)),
    ],
)
def test_one_step_commits_and_totals_are_pinned(kind, m, seed, pinned):
    # On a stream with three near misses, the idle arrivals that commit
    # with one shift after one cursor unit, and the totals of shifts,
    # units, run_i, occ_i and pending, are pinned: a wrong shortcut can
    # keep every answer right and only move them.  No idle arrival commits
    # so here: below K the table takes every idle arrival, and above it
    # these patterns have no first occurrence for the cursor to step past.
    inst = make_instance(kind, m, 9000, 4, seed=seed)
    text = near_misses(inst.pattern, inst.text, range(4), 8, 3)
    ends = {s + m - 1 for s in naive_all_matches(inst.pattern, text)}
    dm = DetMatcher(build_profile(inst.pattern, 4))
    core = dm.core
    got = [0] * 6
    for j, sym in enumerate(text):
        idle = core.phase == _IDLE and not core.pending
        consumed = core.consumed
        assert dm.step(sym) == (j in ends), j
        got[0] += (
            idle
            and core.consumed == consumed + 1
            and core.shifts_last == 1
            and core.units_last == 1
        )
        got[1] += core.shifts_last
        got[2] += core.units_last
        got[3] += core.run_i
        got[4] += core.occ_i
        got[5] += len(core.pending)
    assert tuple(got) == pinned


@pytest.mark.parametrize("name", ["planted", "zipf"])
def test_feed_equals_scan_and_retires_the_table(name):
    # Fed its predecessor distances from elsewhere, a matcher answers and
    # moves as one that scans the symbols; it drops its own table, which
    # no longer describes the stream, and refuses step and scan after.
    pattern, sigma, text, want = det_instance(name)
    m = len(pattern)
    tracker = LastOccurrence(sigma)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    scanned = DetMatcher(build_profile(pattern, sigma))
    fed = DetMatcher(build_profile(pattern, sigma))
    got = []
    for k in range(0, len(text), 1000):
        assert fed.feed(preds[k : k + 1000], got) is got
        scanned.scan(text[k : k + 1000])
        assert {**det_state(scanned), "table": None} == det_state(fed), k
    assert [e - m + 1 for e in got] == want
    with pytest.raises(UsageError):
        fed.step(text[0])
    with pytest.raises(UsageError):
        fed.scan(text[:5])
    assert det_state(fed) == {**det_state(scanned), "table": None}


def test_scan_steps_past_a_first_occurrence_off_the_chain():
    # At arrival 7 the machinery's first-occurrence cursor meets a first
    # occurrence inside the current run, above the chain's lowest member
    # but off its residue class, and steps past it.  Random input rarely
    # does: 6 of 20,000 draws shaped like test_oracle_equivalence_random's
    # (this is one, cut down).
    pattern = [2, 2, 3, 3, 0, 0, 2, 0]
    text = [1, 1, 0, 0, 2, 2, 1, 3] + pattern + [3, 1]
    ends = [s + 7 for s in naive_all_matches(pattern, text)]
    assert ends == [15]
    dm = DetMatcher(build_profile(pattern, 4))
    assert [j for j, sym in enumerate(text) if dm.step(sym)] == ends


def test_a_full_deferral_buffer_raises():
    # The binary planted stream, whose near misses fail at a matched
    # length of K or more, defers up to `peak` arrivals.  With the buffer's
    # capacity set one below that before the first arrival, the arrival
    # that reaches it raises: it waits in `pending`, the matcher's index
    # is its own, every other state attribute is as the arrival before
    # left it, and the matches before it are kept.  The error ends the
    # stream: the core's generator is stopped, and the next arrival is
    # refused without moving the index.
    pattern, sigma, text, want = det_instance("planted_binary")
    profile = build_profile(pattern, sigma)
    ref = DetMatcher(profile)
    ref.scan(text)
    peak = ref.core.pend_peak
    assert peak > 1
    dm = DetMatcher(profile)
    dm.core.pend_cap = peak - 1
    out = []
    with pytest.raises(
        StructuralViolation, match=f"^deferral buffer exceeded capacity {peak - 1}$"
    ):
        dm.scan(text, out)
    bad = dm.i
    want = [s + len(pattern) - 1 for s in want]
    assert out == [e for e in want if e < bad] != []
    ref = DetMatcher(profile)
    ref.scan(text[:bad])
    assert ref.core.pend_peak < peak
    before = core_state(ref.core)
    ref.step(text[bad])
    assert ref.core.pend_peak == peak
    assert type(dm.core.run) is Stopped
    assert core_state(dm.core) == {
        **before,
        "i": bad,
        "pend_cap": peak - 1,
        "pending": before["pending"] + [ref.core.pending[-1]],
    }
    with pytest.raises(UsageError, match="deferral buffer exceeded capacity"):
        dm.step(text[bad + 1])
    assert dm.i == dm.core.i == bad


def test_a_violation_mid_chunk_stops_where_a_stepped_run_stops():
    # The deferral buffer's capacity, set one below the peak this stream
    # reaches, breaks part-way through a scanned chunk.  The scanned and
    # the stepped matcher raise at the same arrival with the same matches
    # and core state, and then both refuse every call.
    pattern, sigma, text, want = det_instance("planted_binary")
    profile = build_profile(pattern, sigma)
    ref = DetMatcher(profile)
    ref.scan(text)
    peak = ref.core.pend_peak
    scanned, stepped = DetMatcher(profile), DetMatcher(profile)
    scanned.core.pend_cap = stepped.core.pend_cap = peak - 1
    by_scan, by_step = [], []
    with pytest.raises(StructuralViolation, match="^deferral buffer exceeded"):
        for k in range(0, len(text), 500):
            scanned.scan(text[k : k + 500], by_scan)
    bad = scanned.i
    with pytest.raises(StructuralViolation, match="^deferral buffer exceeded"):
        for j, sym in enumerate(text):
            if stepped.step(sym):
                by_step.append(j)
    assert stepped.i == bad and bad % 500 not in (0, 499)
    assert core_state(scanned.core) == core_state(stepped.core)
    want = [s + len(pattern) - 1 for s in want]
    assert by_scan == by_step == [e for e in want if e < bad] != []
    for dm in (scanned, stepped):
        for call in (dm.step, dm.scan, dm.feed):
            arg = text[bad + 1] if call == dm.step else text[bad + 1 :]
            with pytest.raises(UsageError, match="deferral buffer exceeded"):
                call(arg)
        assert dm.i == bad


def test_chunks_and_one_arrival_sends_equal_step_pred():
    # One seeded distance stream through four cores: `step_pred`, whole
    # chunks of 1-800 distances, the same chunks sent in stop mode, each
    # arrival that one leaves unread sent alone as phase A sends it, and
    # one-arrival sends read as phase A reads them (the symbols consumed
    # so far, negated when a match ends).  They agree on every answer and,
    # after each call, on every state attribute.  A stop-mode send returns
    # after a match or before a busy core's arrival, every arrival it
    # takes consumes one symbol and leaves nothing pending, and one that
    # takes none leaves the state as it was.  Reading the state writes a
    # running generator back once and leaves it running.
    pattern, sigma, text, want = det_instance("planted")
    tracker = LastOccurrence(sigma)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    profile = build_profile(pattern, sigma)
    stepped, chunked, stopped, sent = (DetCore(profile) for _ in range(4))
    send = sent._start().send
    send_stop = stopped._start().send
    rng = random.Random(22)
    by_step, by_chunk, by_stop, by_send = [], [], [], []
    alone = 0
    k = 0
    while k < len(preds):
        chunk = preds[k : k + rng.randint(1, 800)]
        (chunked.run or chunked._start()).send((chunk, by_chunk, None))
        states = []
        for j, pv in enumerate(chunk, k):
            if stepped.step_pred(pv):
                by_step.append(j)
            done = send(pv)
            if done < 0:
                by_send.append(j)
            assert not sent.synced
            assert abs(done) == stepped.consumed, j
            states.append(core_state(stepped))
            assert core_state(sent) == states[-1], j
            assert sent.synced
        while stopped.i + 1 < k + len(chunk):
            before = core_state(stopped)
            ends = len(by_stop)
            done = send_stop((chunk[stopped.i + 1 - k :], by_stop, True))
            took = stopped.i - before["i"]
            assert abs(done) - before["consumed"] == took
            assert (done < 0) == (ends < len(by_stop))
            assert by_stop[ends:] in ([], [stopped.i])
            if took:
                assert stopped.phase == _IDLE and not stopped.pending
            else:
                assert core_state(stopped) == before
                if send_stop(chunk[stopped.i + 1 - k]) < 0:
                    by_stop.append(stopped.i)
                alone += 1
            assert core_state(stopped) == states[stopped.i - k], stopped.i
        assert core_state(chunked) == states[-1], k
        k += len(chunk)
    ends = [s + len(pattern) - 1 for s in want]
    assert by_step == by_chunk == by_stop == by_send == ends != []
    assert alone > 0 and stepped.pend_peak > 0
    assert stepped.i == len(preds) - 1


def test_a_stop_mode_chunk_stops_after_a_match_in_the_table():
    # A pattern of at most K symbols is the whole table, which reports its
    # matches and never runs the shift machinery.  A chunk sent in stop
    # mode returns right after the first match, as after one on the fast
    # path; sent again from the next arrival each time, the core finds the
    # oracle's matches, and every arrival consumes one symbol.
    rng = random.Random(5)
    pattern = [0, 1, 1, 0, 2]
    text = [rng.randrange(3) for _ in range(300)]
    for at in (40, 41, 150, 296):
        text[at - 4 : at + 1] = [(x + at) % 3 for x in pattern]
    tracker = LastOccurrence(3)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    core = DetCore(build_profile(pattern, 3))
    got = []
    while core.i + 1 < len(preds):
        ends = []
        done = (core.run or core._start()).send((preds[core.i + 1 :], ends, True))
        assert (done < 0) == bool(ends) and ends in ([], [core.i])
        assert abs(done) == core.consumed == core.i + 1
        got += ends
    assert got == [s + 4 for s in naive_all_matches(pattern, text)] != []


def test_copies_taken_between_sends_go_on_like_the_original():
    # A deep copy and a pickle of a matcher whose core's generator has
    # run since its last write-back carry its state; the copies and the
    # original, whose generator keeps running, answer the rest alike.
    pattern, sigma, text, want = det_instance("planted")
    ends = [s + len(pattern) - 1 for s in want]
    dm = DetMatcher(build_profile(pattern, sigma))
    half = 4200
    for sym in text[:half]:
        dm.step(sym)
    assert dm.core.pending and not dm.core.synced
    run = dm.core.run
    copies = [copy.deepcopy(dm), pickle.loads(pickle.dumps(dm))]
    assert dm.core.run is run
    for c in copies:
        assert c.core.run is None and det_state(c) == det_state(dm)
    rest = text[half:]
    for m in (dm, *copies):
        assert [half + j for j, sym in enumerate(rest) if m.step(sym)] == [
            e for e in ends if e >= half
        ] != []
        assert det_state(m) == det_state(dm)


def test_state_attributes_are_live_descriptors():
    # On each engine's class every name in `_STATE` is its descriptor,
    # which reads its entry of the state record; no program writes an
    # engine's state, so a write is refused.  Each engine has run since
    # its last write-back, so the first read writes its generator back.
    core = DetCore(build_profile([0, 1, 0], 2))
    core.step_pred(NEVER)
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    sm.scan(inst.text[:100])
    for engine in (core, sm):
        cls = type(engine)
        assert not engine.synced
        for k, name in enumerate(cls._STATE):
            assert isinstance(getattr(cls, name), _Live)
            with pytest.raises(AttributeError):
                setattr(engine, name, 0)
            assert getattr(engine, name) == engine.state[k]
            assert engine.synced
    assert (core.i, core.r, core.run is not None) == (0, 1, True)
    # A det-routed matcher holds none of the randomized engine's state.
    routed = StreamMatcher(inst.pattern, 4, mode="det")
    for name in StreamMatcher._STATE:
        with pytest.raises(AttributeError):
            getattr(routed, name)


def test_a_bare_core_stops_at_its_first_error():
    # A core fed distances directly ends its stream at a deferral
    # overflow: `i` is the arrival that raised, and every later send, of
    # one arrival or of a chunk, on the core and on its copies, raises
    # UsageError naming the overflow.
    pattern, sigma, text, _ = det_instance("planted")
    tracker = LastOccurrence(sigma)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    profile = build_profile(pattern, sigma)
    core = DetCore(profile, pend_cap=1)
    with pytest.raises(StructuralViolation, match="^deferral buffer exceeded"):
        for pv in preds:
            core.step_pred(pv)
    at = core.i
    assert 0 < at < len(preds) - 1 and len(core.pending) == 2
    for c in (core, copy.deepcopy(core), pickle.loads(pickle.dumps(core))):
        assert type(c.run) is Stopped
        with pytest.raises(UsageError, match="deferral buffer exceeded capacity 1"):
            c.step_pred(preds[at + 1])
        with pytest.raises(UsageError, match="deferral buffer exceeded capacity 1"):
            c.run.send((preds[at + 1 :], [], None))
        assert c.i == at


@pytest.mark.parametrize(
    "q, view",
    [
        pytest.param(q, view, id=f"{q}-view" if view else str(q))
        for view in (False, True)
        for q in (40, K, 5)
    ],
)
def test_a_stop_mode_chunk_with_its_array_equals_step_pred(q, view, monkeypatch):
    # A stop-mode chunk sent with its distances as an int64 array, as
    # phase A sends a long stretch's, takes the arrivals before the first
    # window that brings the table to top = min(K, q) in one step.  The
    # streams put that window's end at every chunk offset from 0 to
    # 2 * top, at the chunk's last arrival, and nowhere; the windows at the
    # first top - 1 offsets reach before the chunk and are found by the
    # table from r, the later ones by the array's filter.  Noise and the
    # window's first occurrences mix NEVER, 0, negative and >= q values.
    # For q <= K the window is a match, after which the chunk returns.
    # Each array is a fresh one, or, as phase A sends them, a view at an
    # offset of one larger array.  After every send the core's state
    # equals a stepped twin's at the same arrival, and so do the matches.
    rng = random.Random(q)
    pattern = [rng.randrange(3) for _ in range(q)]
    profile = build_profile(pattern, 3)
    pred = pred_string(pattern)
    top = min(K, q)
    size = 3 * top + 10
    found = []

    def spy(*args):
        found.append(_first_window(*args))
        return found[-1]

    monkeypatch.setattr(det_matcher, "_first_window", spy)
    for end in [*range(2 * top + 1), size - 1, None]:
        while True:
            noise = [rng.choice((NEVER, 0, -3, q + 5, 1, 2, 3)) for _ in range(30 + size)]
            if end is not None:
                at = 30 + end - top + 1
                noise[at : at + top] = [
                    c or rng.choice((NEVER, 0, -3, q + 5, k + 1)) for k, c in enumerate(pred[:top])
                ]
            stepped = DetCore(profile)
            states, ends, reach = [], [], None
            for j, pv in enumerate(noise):
                if stepped.step_pred(pv):
                    ends.append(j)
                if reach is None and j >= 30 and (stepped.r >= top or ends[-1:] == [j]):
                    reach = j - 30
                states.append(core_state(stepped))
            if reach == end:
                break
        big = np.array([q + 5] * 7 + noise + [NEVER] * 3, np.int64)
        core = DetCore(profile)
        for pv in noise[:30]:
            core.step_pred(pv)
        got = [j for j in ends if j < 30]
        first = True
        while core.i + 1 < len(noise):
            seg = noise[core.i + 1 :]
            before = core.i
            del found[:]
            arr = big[core.i + 8 : len(noise) + 7] if view else np.array(seg, np.int64)
            core.run.send((arr, got, True))
            if first:
                # The filter runs unless the table from r reaches top in
                # the first top - 1 arrivals; it finds the window's end.
                want = [] if end is not None and end < top - 1 else [size if end is None else end]
                assert found == want, end
                first = False
            if core.i == before and core.run.send(noise[core.i + 1]) < 0:
                got.append(core.i)
            assert core_state(core) == states[core.i], (end, core.i)
        assert got == ends


def test_stop_mode_chunks_with_arrays_leave_a_busy_core_to_its_machinery():
    # Phase A's sends over a binary stream with 20 near misses, whose
    # comparisons fail at K or more, where the machinery runs, below K too,
    # and defers arrivals: each stop-mode chunk, of 1-800 distances, goes
    # with its int64 array from the arrival after the last one taken, and
    # an arrival that one leaves unread goes alone.  A chunk that finds the
    # core busy below K, with a test in flight or arrivals deferred, takes
    # nothing in bulk: after every send the state equals a stepped core's
    # at the same arrival.
    inst = make_instance("planted", 600, 6000, 2, seed=3)
    text = near_misses(inst.pattern, inst.text, range(2), 1, 20)
    tracker = LastOccurrence(2)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    profile = build_profile(inst.pattern, 2)
    stepped = DetCore(profile)
    states = []
    for pv in preds:
        stepped.step_pred(pv)
        states.append(core_state(stepped))
    core = DetCore(profile)
    send = core._start().send
    rng = random.Random(23)
    ends, busy, waiting = [], 0, 0
    while core.i + 1 < len(preds):
        if core.r < K and core.phase != _IDLE and not core.pending:
            busy += 1
        elif core.r < K and core.pending:
            waiting += 1
        seg = preds[core.i + 1 : core.i + 1 + rng.randint(1, 800)]
        before = core.i
        send((np.array(seg, np.int64), ends, True))
        if core.i == before and send(preds[core.i + 1]) < 0:
            ends.append(core.i)
        assert core_state(core) == states[core.i], core.i
        # The one test of a free core: it has consumed every arrival fed.
        assert (core.consumed == core.i + 1) == (core.phase == _IDLE and not core.pending)
    assert ends == [s + 599 for s in naive_all_matches(inst.pattern, text)]
    assert (busy, waiting) == (2, 61)
