import random

import pytest
from hypothesis import given, settings, strategies as st

from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch.oracle import naive_all_matches
from parmatch.predecessor import NEVER, LastOccurrence, pred_string
from parmatch.stream_matcher import StreamMatcher


def test_codes_reused_injectively():
    f = AlphabetFilter(pattern_distinct=2)
    assert [f.step(s) for s in ["x", "y", "x"]] == [0, 1, 0]


def test_live_symbol_keeps_code_and_moves_to_tail():
    f = AlphabetFilter(pattern_distinct=3)
    for s in ["d", "b", "g", "e"]:
        f.step(s)
    code_b = f.live["b"][1]
    assert f.step("b") == code_b
    assert list(f.live) == ["d", "g", "e", "b"]
    assert f.live["b"][0] == 4


def test_capacity_eviction_reuses_code():
    f = AlphabetFilter(pattern_distinct=1)  # cap = 2
    a = f.step("a")
    b = f.step("b")
    c = f.step("c")  # evicts a, reuses its code
    assert sorted([b, c]) == sorted([a, b])
    assert "a" not in f.live and len(f.live) == 2


def test_densify_pattern():
    dense, distinct = densify_pattern(["u", "v", "v", "w", "u"])
    assert dense == [0, 1, 1, 2, 0]
    assert distinct == 3


@settings(max_examples=120)
@given(st.data())
def test_window_pred_preserved_when_few_distinct(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    distinct = rng.randint(1, 4)
    m = rng.randint(1, 12)
    n = rng.randint(m, 80)
    # raw alphabet is wide and sparse
    raw = [rng.randrange(10**9) % (distinct + 3) * 997 + 5 for _ in range(n)]
    f = AlphabetFilter(distinct, m)
    filtered = [f.step(s) for s in raw]
    for i in range(n - m + 1):
        w_raw = raw[i : i + m]
        w_f = filtered[i : i + m]
        if len(set(w_raw)) <= distinct:
            assert pred_string(w_f) == pred_string(w_raw)


def test_overflow_window_keeps_too_many_codes():
    # More distinct raw symbols in the window than the pattern has:
    # the filtered window must also exceed the pattern's distinct count.
    distinct = 2
    m = 6
    f = AlphabetFilter(distinct, m)
    raw = [101, 202, 303, 101, 202, 303]
    filtered = [f.step(s) for s in raw]
    assert len(set(filtered)) == distinct + 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_windows_keep_their_verdict_on_bursty_streams(data):
    # Bursts over a few symbols of a wider vocabulary, so symbols return
    # after long gaps on the code of one evicted meanwhile.  A window with
    # at most d distinct raw symbols keeps its predecessor string; one
    # with more keeps more than d distinct codes, so it cannot match a
    # pattern with d.
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    d = rng.randint(1, 6)
    m = rng.randint(2, 40)
    vocab = rng.sample(range(10**9), d + rng.randint(1, 8))
    raw = []
    while len(raw) < 600:
        burst = rng.sample(vocab, rng.randint(1, min(d + 2, len(vocab))))
        raw += rng.choices(burst, k=rng.randint(1, 3 * m))
    f = AlphabetFilter(d)
    codes = [f.step(x) for x in raw]
    for i in range(len(raw) - m + 1):
        w_raw, w_codes = raw[i : i + m], codes[i : i + m]
        if len(set(w_raw)) <= d:
            assert pred_string(w_codes) == pred_string(w_raw), i
        else:
            assert len(set(w_codes)) > d, i


def test_composition_matches_oracle_on_raw_stream():
    rng = random.Random(44)
    for trial in range(30):
        m = rng.randint(2, 24)
        n = rng.randint(m, 300)
        width = rng.choice([3, 5, 9])
        pattern_raw = [rng.randrange(width) * 1009 + 7 for _ in range(m)]
        text_raw = [rng.randrange(width) * 1009 + 7 for _ in range(n)]
        if rng.random() < 0.5:
            i = rng.randint(0, n - m)
            text_raw[i : i + m] = pattern_raw
        dense, distinct = densify_pattern(pattern_raw)
        f = AlphabetFilter(distinct, m)
        sm = StreamMatcher(dense, distinct + 1, seed=trial)
        got = []
        for idx, s in enumerate(text_raw):
            if sm.step(f.step(s)):
                got.append(idx - m + 1)
        assert got == naive_all_matches(pattern_raw, text_raw), (trial, m, n)


def filter_state(f):
    return list(f.live.items()), f.t


def test_freed_code_keeps_its_last_arrival():
    f = AlphabetFilter(pattern_distinct=1)  # cap = 2
    # a and b take fresh codes; c takes a's code, last used at 0; a comes
    # back and takes b's code, last used at 1.
    assert f.scan_pred(["a", "b", "c", "a", "a"]) == [NEVER, NEVER, 2, 2, 1]


RAW_ALPHABETS = {
    "u64": st.integers(min_value=0, max_value=2**64 - 1),
    "unicode": st.text(max_size=4),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(RAW_ALPHABETS)))
def test_scan_pred_is_last_occurrence_over_the_codes(data, kind):
    # More raw symbols than the filter has codes, drawn with repeats, so
    # evicted symbols come back and take an evicted symbol's code.
    vocab = data.draw(
        st.lists(RAW_ALPHABETS[kind], min_size=1, max_size=12, unique=True)
    )
    distinct = data.draw(st.integers(min_value=1, max_value=5))
    raw = data.draw(st.lists(st.sampled_from(vocab), max_size=300))
    chunk = data.draw(st.integers(min_value=1, max_value=64))
    stepped = AlphabetFilter(distinct)
    scanned = AlphabetFilter(distinct)
    tracker = LastOccurrence(distinct + 1)
    for k in range(0, len(raw), chunk):
        piece = raw[k : k + chunk]
        want = [tracker.step(stepped.step(s), k + j) for j, s in enumerate(piece)]
        assert scanned.scan_pred(piece) == want, k
        assert filter_state(scanned) == filter_state(stepped), k


def test_scan_pred_stops_like_step_on_an_unhashable_symbol():
    raw = ["a", "b", "c", "a", ["x"], "b"]
    stepped = AlphabetFilter(pattern_distinct=1)
    with pytest.raises(TypeError):
        for s in raw:
            stepped.step(s)
    scanned = AlphabetFilter(pattern_distinct=1)
    with pytest.raises(TypeError):
        scanned.scan_pred(raw)
    assert filter_state(scanned) == filter_state(stepped)
    assert scanned.scan_pred(["b"]) == [3]


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_unicode_tokens_through_the_filter_into_each_engine(mode):
    # Unicode tokens, Zipf-weighted so that evicted tokens come back; each
    # engine is fed the filter's distances.
    # The det core's totals are pinned: the filter's distances are exact
    # below m, and the core reads any distance of at least m as a first
    # occurrence, so these totals hold for any filter that keeps that.
    rng = random.Random(12)
    vocab = [
        "".join(chr(rng.randrange(0x4E00, 0x9FFF)) for _ in range(3)) for _ in range(300)
    ]
    ids = rng.sample(vocab, 3)
    pattern = ids + [rng.choice(ids) for _ in range(597)]
    text = rng.choices(vocab, [1 / (k + 1) for k in range(len(vocab))], k=12000)
    for at in (0, 5000, 11400):
        relabel = dict(zip(ids, rng.sample(vocab, 3)))
        text[at : at + 600] = [relabel[x] for x in pattern]
    dense, distinct = densify_pattern(pattern)
    f = AlphabetFilter(distinct, len(pattern))
    sm = StreamMatcher(dense, distinct + 1, mode=mode, seed=3)
    ends = []
    shifts = units = 0
    for k in range(0, len(text), 5000):
        chunk = text[k : k + 5000]
        if mode == "det":
            core = sm.det.core
            for g in f.scan_pred(chunk):
                sm.det.feed((g,), ends)
                shifts += core.shifts_last
                units += core.units_last
        else:
            sm.feed(f.scan_pred(chunk), ends)
    want = naive_all_matches(pattern, text)
    assert len(want) >= 3
    assert [e - len(pattern) + 1 for e in ends] == want
    if mode == "det":
        assert (core.consumed, shifts, units, core.pend_peak) == (12000, 9791, 1751, 20)
