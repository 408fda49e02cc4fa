import random

import pytest
from hypothesis import given, settings, strategies as st

from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch.det_matcher import _IDLE, DetCore, DetMatcher
from parmatch.errors import AlphabetError, StructuralViolation, UsageError
from parmatch.gen import make_instance
from parmatch.oracle import naive_all_matches
from parmatch.pattern import build_profile
from parmatch.predecessor import LastOccurrence


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
    core = dm.core
    return {
        "i": dm.i,
        "table": None if dm.tracker is None else list(dm.tracker.table),
        "core": {
            name: getattr(core, name) for name in DetCore.__slots__ if name != "pending"
        },
        "pending": list(core.pending),
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


DET_INSTANCES = {
    "random": ("random", 300, 6000, 2, 1),
    "periodic": ("periodic", 1000, 8000, 3, 3),
    "planted": ("planted", 1500, 9000, 4, 5),
    "planted_binary": ("planted", 600, 6000, 2, 6),
}


def det_instance(name):
    """(dense pattern, sigma, symbols fed to the matcher, match starts)."""
    if name == "zipf":
        raw_pattern, raw_text = zipf_tokens(20000, 64, seed=7)
        dense, distinct = densify_pattern(raw_pattern)
        f = AlphabetFilter(distinct, len(dense))
        codes = [f.step(x) for x in raw_text]
        return dense, distinct + 1, codes, naive_all_matches(raw_pattern, raw_text)
    kind, m, n, sigma, seed = DET_INSTANCES[name]
    inst = make_instance(kind, m, n, sigma, seed=seed)
    return inst.pattern, sigma, inst.text, naive_all_matches(inst.pattern, inst.text)


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


def test_each_arrival_agrees_with_the_oracle_through_the_one_shift_path():
    # Per arrival, on an idle core whose first comparison fails: the
    # one-shift path commits (one shift, and no cursor unit, or the one
    # unit of a first-occurrence step), or its test fails and the shift
    # machinery goes on from there (a second shift).  A wrong shortcut can
    # keep every answer right and only cost more, so the totals of the
    # work done and of the cursors are pinned as well, to the values the
    # engine without the shortcut gives.
    rng = random.Random(17)
    one_shift = [0, 0]  # by units spent: none, or one first-occurrence step
    fall_through = 0
    totals = dict.fromkeys(("shifts", "units", "run_i", "occ_i", "pending"), 0)
    for t in range(240):
        kind = ("random", "periodic")[t % 2]
        sigma = rng.randint(1, 6)
        m = rng.randint(1, 60)
        inst = make_instance(kind, m, 8 * m, sigma, seed=rng.randrange(2**31))
        ends = {s + m - 1 for s in naive_all_matches(inst.pattern, inst.text)}
        dm = DetMatcher(build_profile(inst.pattern, sigma))
        core = dm.core
        for j, sym in enumerate(inst.text):
            idle = core.phase == _IDLE and not core.pending
            consumed = core.consumed
            assert dm.step(sym) == (j in ends), (t, j)
            if idle and core.consumed == consumed + 1 and core.shifts_last == 1:
                if core.units_last < 2:
                    one_shift[core.units_last] += 1
            if idle and core.shifts_last == 2:
                fall_through += 1
            totals["shifts"] += core.shifts_last
            totals["units"] += core.units_last
            totals["run_i"] += core.run_i
            totals["occ_i"] += core.occ_i
            totals["pending"] += len(core.pending)
    assert (one_shift, fall_through) == ([8161, 1780], 3575)
    assert totals == {
        "shifts": 18450, "units": 10244, "run_i": 65621, "occ_i": 70596, "pending": 1
    }


@pytest.mark.parametrize(
    "kind, m, seed, pinned",
    [
        # Nearly every long_gap arrival fails its first comparison on a
        # cursor that points at the candidate itself, and commits after
        # one first-occurrence step.
        ("long_gap", 2100, 8, (8970, 8999, 8985, 0, 9014, 0)),
        ("planted", 3000, 5, (41, 2091, 5060, 5468483, 21900, 22898)),
    ],
)
def test_one_step_commits_and_totals_are_pinned(kind, m, seed, pinned):
    # The idle arrivals that commit with one shift after one cursor unit,
    # and the totals of shifts, units, run_i, occ_i and pending, are those
    # of the engine without the one-shift path.
    inst = make_instance(kind, m, 9000, 4, seed=seed)
    ends = {s + m - 1 for s in naive_all_matches(inst.pattern, inst.text)}
    dm = DetMatcher(build_profile(inst.pattern, 4))
    core = dm.core
    got = [0] * 6
    for j, sym in enumerate(inst.text):
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
    # The planted stream defers up to `peak` arrivals; with the buffer's
    # capacity one below that, the arrival that reaches it raises, and
    # the matches before it are kept.
    inst = make_instance("planted", 80, 1200, 3, seed=0)
    profile = build_profile(inst.pattern, 3)
    ref = DetMatcher(profile)
    ref.scan(inst.text)
    peak = ref.core.pend_peak
    assert peak > 1
    dm = DetMatcher(profile)
    dm.core.pend_cap = peak - 1
    out = []
    with pytest.raises(
        StructuralViolation, match=f"^deferral buffer exceeded capacity {peak - 1}$"
    ):
        dm.scan(inst.text, out)
    want = [s + 79 for s in naive_all_matches(inst.pattern, inst.text)]
    assert out == [e for e in want if e < dm.i] != []
    ref = DetMatcher(profile)
    ref.scan(inst.text[: dm.i])
    assert ref.core.pend_peak < peak
    ref.step(inst.text[dm.i])
    assert ref.core.pend_peak == peak
