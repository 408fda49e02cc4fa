import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from parmatch import det_matcher as det_mod
from parmatch import pattern as pattern_mod
from parmatch.det_matcher import DetCore
from parmatch.errors import StructuralViolation, UsageError
from parmatch.fingerprint import context_new, fp_of_sequence
from parmatch.gen import periodic_instance
from parmatch.oracle import naive_pperiod
from parmatch.pattern import (
    build_compressed_pred,
    build_first_occurrences,
    build_ladder,
    build_profile,
    build_run_table,
    ceil_log2,
    compute_prefix_pperiods,
    level_fingerprints,
)
from parmatch.predecessor import pred_string
from parmatch.stream_matcher import StreamMatcher

patterns = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60)


def test_prefix_pperiods_examples():
    assert compute_prefix_pperiods([0, 0, 1, 1])[1:] == [1, 1, 2, 2]
    assert compute_prefix_pperiods([0] * 7)[1:] == [1] * 7
    assert compute_prefix_pperiods([0, 1, 0, 1, 0, 1])[6] == 1


@given(patterns)
def test_prefix_pperiods_against_brute_force(p):
    periods = compute_prefix_pperiods(p)
    for r in range(1, len(p) + 1):
        assert periods[r] == naive_pperiod(p[:r])


@given(patterns)
def test_prefix_pperiods_non_decreasing(p):
    periods = compute_prefix_pperiods(p)
    assert all(a <= b for a, b in zip(periods[1:], periods[2:]))


def test_compressed_pred_examples():
    cp = build_compressed_pred([0, 1, 0, 1, 0, 1], 1)
    assert (cp.ks[0], cp.cs[0]) == (2, 2)  # pred = 0,0,2,2,2,2
    cp = build_compressed_pred([0] * 5, 1)
    assert (cp.ks[0], cp.cs[0]) == (1, 1)


def test_compressed_pred_rejects_wrong_period():
    # pred(aabab) = 0,1,0,2,2; rho=4 makes residue 0 read 0 then ... then 2
    # after a constant 0-run would be fine, but rho=1 gives 0,1,0,...: a zero
    # after the constant 1 breaks the shape.
    with pytest.raises(StructuralViolation):
        build_compressed_pred([0, 0, 1, 0, 1], 1)


def test_compressed_pred_rejects_zero_or_second_constant():
    # pred(ababc) = 0,0,2,2,0: with rho=2, residue 0 reads 0, 2, then 0.
    with pytest.raises(StructuralViolation, match=r"residue 0: .*\(0 after 2\)"):
        build_compressed_pred([0, 1, 0, 1, 2], 2)
    # pred(aabaabb) = 0,1,0,2,1,3,1: with rho=3, residue 0 reads 0, 2, 1.
    with pytest.raises(StructuralViolation, match=r"residue 0: .*\(1 after 2\)"):
        build_compressed_pred([0, 0, 1, 0, 0, 1, 1], 3)


def test_wrong_period_raises_through_the_profile():
    # The det engine's own table build keeps the check: a profile whose
    # period table lies about rho raises when a DetCore is built on it.
    prof = build_profile([0, 0, 1, 0, 1], 2)
    periods = list(prof.periods)
    periods[5] = 1
    bad = pattern_mod.PatternProfile(
        m=5, sigma=2, periods=periods, pred=prof.pred, ladder=prof.ladder
    )
    with pytest.raises(StructuralViolation, match="rho=1 is not the period"):
        DetCore(bad, pend_cap=16)


@given(patterns)
def test_pred_access_equals_pred_string(p):
    rho = compute_prefix_pperiods(p)[len(p)]
    cp = build_compressed_pred(p, rho)
    pp = pred_string(p)
    for i in range(len(p)):
        j = i % rho
        assert (0 if i // rho < cp.ks[j] else cp.cs[j]) == pp[i]


@given(patterns)
def test_run_table_expansion(p):
    periods = compute_prefix_pperiods(p)
    runs = build_run_table(periods)
    expanded = [0] * (len(p) + 1)
    for rho, lo, hi in runs:
        for r in range(lo, hi + 1):
            expanded[r] = rho
    assert expanded[1:] == periods[1:]
    values = [rho for rho, _, _ in runs]
    assert values == sorted(set(values))
    assert len(runs) <= periods[len(p)]
    # intervals partition [1, m]
    spans = [(lo, hi) for _, lo, hi in runs]
    assert spans[0][0] == 1 and spans[-1][1] == len(p)
    for (_, h), (l2, _) in zip(spans, spans[1:]):
        assert l2 == h + 1


@given(patterns)
def test_run_skip_justification(p):
    # Lengths sharing a period relate the predecessor values one period
    # apart: the value at the shorter chain position is 0 or the same.
    periods = compute_prefix_pperiods(p)
    pp = pred_string(p)
    for length in range(1, len(p)):
        if periods[length] == periods[length + 1]:
            rho = periods[length]
            if length - rho >= 0:
                assert pp[length - rho] in (0, pp[length])


@given(patterns)
def test_first_occurrences(p):
    occ = build_first_occurrences(pred_string(p))
    assert occ[0] == 0
    assert len(occ) == len(set(p))


@given(patterns)
def test_on_demand_det_tables_equal_direct_builds(p):
    # A DetCore builds its tables from the profile's periods and pred.
    prof = build_profile(p, 4)
    pp = pred_string(p)
    periods = compute_prefix_pperiods(p)
    assert prof.pred == pp and prof.periods == periods
    core = DetCore(prof, pend_cap=16)
    cp = build_compressed_pred(p, periods[len(p)])
    assert (core.rho, core.cp_ks, core.cp_cs) == (cp.rho, cp.ks, cp.cs)
    assert core.runs == build_run_table(periods)
    assert core.occ == build_first_occurrences(pp)


@given(patterns)
def test_prefix_pperiods_reuses_given_pred(p):
    assert compute_prefix_pperiods(p, pred_string(p)) == compute_prefix_pperiods(p)


def test_profile_symbol_check_names_first_bad_symbol():
    with pytest.raises(UsageError, match="pattern symbol 4 at 2 outside"):
        build_profile([0, 1, 4, 3, -1], 4)
    with pytest.raises(UsageError, match="pattern symbol -1 at 1 outside"):
        build_profile([0, -1, 2, 7], 4)
    with pytest.raises(UsageError, match="pattern symbol -2 at 2 outside"):
        build_profile([0, 1, -2, 3], 4)
    big = rf"pattern symbol {2**70} at 1 outside \[0, 4\)"
    with pytest.raises(UsageError, match=big):
        build_profile([0, 2**70, 1.5], 4)
    # A float is no symbol, even one with an integer value: an int kernel
    # would read 1.5 as 1.
    with pytest.raises(UsageError, match=r"pattern symbol 1\.5 at 1 is not an integer"):
        build_profile([0, 1.5, 1], 4)
    with pytest.raises(UsageError, match=r"pattern symbol 2\.0 at 5000 is not an"):
        build_profile([1] * 5000 + [2.0, 7], 4)
    with pytest.raises(UsageError, match="pattern symbol 'a' at 2 is not an integer"):
        build_profile([0, 1, "a", -1], 4)
    with pytest.raises(UsageError, match="pattern symbol -3 at 0 outside"):
        build_profile([-3, "a"], 4)
    # Wider alphabets take wider symbol arrays.
    with pytest.raises(UsageError, match=r"pattern symbol 300 at 1 outside \[0, 300\)"):
        build_profile([299, 300], 300)
    with pytest.raises(UsageError, match="pattern symbol 70000 at 0 outside"):
        build_profile([70000, 0], 70000)
    # bool is an int; any sequence of ints is a pattern, bytes included.
    assert build_profile([True, False, True], 2).pred == [0, 0, 2]
    assert build_profile(b"abab", 300).pred == [0, 0, 2, 2]
    assert build_profile((5, 6, 5), 70000).pred == [0, 0, 2]


def _list_bytes(xs: list[int]) -> int:
    """Bytes of a list and of the int objects it holds (small ints are
    shared and cost nothing)."""
    boxed = {id(v): v for v in xs if not -5 <= v <= 256}
    return sys.getsizeof(xs) + sum(sys.getsizeof(v) for v in boxed.values())


def test_profile_peak_is_its_own_lists_plus_fixed_slack():
    # Once the period list exists no step holds a temporary that grows
    # with m, and the predecessor stage holds less than that list will:
    # the peak is the profile's pred and period lists plus a fixed slack,
    # and the level fingerprints computed from them add no more.
    # At m = 2^16 a full-length array of int32 (256 KiB) or a copy of the
    # largest level (40320 words) exceeds the slack.
    m = 1 << 16
    pattern = periodic_instance(m, 0, 4, seed=1, block=256).pattern
    ctx = context_new(61, 1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prof = build_profile(pattern, 4)
        fps = level_fingerprints(ctx, prof.ladder.lengths, prof.pred)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert prof.ladder.mode == "rand" and len(fps) == prof.ladder.s + 1
    own = _list_bytes(prof.pred) + _list_bytes(prof.periods)
    assert peak <= own + 128 * 1024, (peak, own)


def test_rand_matcher_builds_no_det_tables_for_the_whole_pattern(monkeypatch):
    # Only phase A's sub-profile (the base prefix minus one) needs the
    # deterministic tables; the main profile must not build them.
    sizes = []

    def counted(builder, size_of):
        def wrapper(*args, **kw):
            sizes.append((builder.__name__, size_of(*args, **kw)))
            return builder(*args, **kw)

        return wrapper

    monkeypatch.setattr(
        det_mod,
        "build_compressed_pred",
        counted(build_compressed_pred, lambda pat, rho, pred=None: len(pred)),
    )
    monkeypatch.setattr(
        det_mod,
        "build_run_table",
        counted(build_run_table, lambda periods: len(periods) - 1),
    )
    monkeypatch.setattr(
        det_mod,
        "build_first_occurrences",
        counted(build_first_occurrences, len),
    )
    rng = random.Random(11)
    m = 2000
    p = [rng.randrange(4) for _ in range(m)]
    sm = StreamMatcher(p, 4, seed=3)
    assert sm.mode == "rand"
    built = {name for name, _ in sizes}
    assert built == {
        "build_compressed_pred",
        "build_run_table",
        "build_first_occurrences",
    }
    assert all(size == sm.m0 - 1 for _, size in sizes), sizes


def ladder_of(p, sigma, ctx=None):
    pred = pred_string(p)
    periods = compute_prefix_pperiods(p, pred)
    return build_ladder(p, sigma, ctx, periods=periods, pred=pred)


def test_ladder_gate_small_period():
    ladder, fps = ladder_of([0] * 1000, 4)
    assert ladder.mode == "det" and fps is None


def test_ladder_gate_short_pattern():
    # delta = 8 * 7 = 56, 14*delta = 784 > 100
    p = [random.Random(1).randrange(8) for _ in range(100)]
    ladder, _ = ladder_of(p, 8)
    assert ladder.mode == "det"


def test_ladder_unary_alphabet_always_det():
    ladder, _ = ladder_of([0] * 5000, 1)
    assert ladder.mode == "det"


def test_ladder_large_random_binary():
    rng = random.Random(7)
    m = 1 << 17
    p = [rng.randrange(2) for _ in range(m)]
    ctx = context_new(61, 1)
    pred = pred_string(p)
    periods = compute_prefix_pperiods(p, pred)
    ladder, fps = build_ladder(p, 2, ctx, periods=periods, pred=pred)
    delta = 2 * ceil_log2(m)
    assert ladder.mode == "rand"
    lens = ladder.lengths
    assert lens[-1] == m - 4 * delta
    for a, b in zip(lens, lens[1:-1]):
        assert b == 2 * a
    assert lens[-2] <= m // 2
    # the base prefix really is the shortest one above the threshold
    assert naive_pperiod(p[: lens[0]]) > 3 * delta
    assert naive_pperiod(p[: lens[0] - 1]) <= 3 * delta
    # every ladder prefix keeps a large period
    for ln in lens:
        assert periods[ln] > 3 * delta


def test_ladder_gaps_at_least_three_delta():
    rng = random.Random(3)
    for _ in range(15):
        sigma = rng.choice([2, 4])
        m = rng.randint(300, 1200) if sigma == 2 else rng.randint(550, 1500)
        p = [rng.randrange(sigma) for _ in range(m)]
        ladder, _ = ladder_of(p, sigma, context_new(61, 1))
        if ladder.mode != "rand":
            continue
        d = ladder.delta
        for a, b in zip(ladder.lengths, ladder.lengths[1:]):
            assert b - a >= 3 * d


def test_level_fingerprints_match_pred_windows():
    rng = random.Random(11)
    m = 600
    p = [rng.randrange(2) for _ in range(m)]
    ctx = context_new(61, 1)
    prof = build_profile(p, 2)
    assert prof.ladder.mode == "rand"
    pp = pred_string(p)
    lens = prof.ladder.lengths
    fps = level_fingerprints(ctx, lens, prof.pred)
    assert fps[0] == 0 and len(fps) == len(lens)
    for level in range(1, len(lens)):
        assert fps[level] == fp_of_sequence(ctx, pp[lens[level - 1] : lens[level]])
    # build_ladder hands back the same targets when given the context.
    _, ladder_fps = build_ladder(p, 2, ctx, periods=prof.periods, pred=prof.pred)
    assert ladder_fps == fps
    # The matcher is handed Python ints only, never numpy scalars.
    assert {type(v) for v in prof.pred + fps} == {int}
