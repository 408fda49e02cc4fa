import copy
from array import array
import gc
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch import det_matcher, fingerprint
from parmatch.det_matcher import _IDLE, CONSUMES_PER_ARRIVAL, K, DetCore, DetMatcher
from parmatch.errors import AlphabetError, ConfigError, StructuralViolation, UsageError
from parmatch.fingerprint import (
    FieldContext,
    context_new,
    fp_of_sequence,
    power_table,
    prime_for_bits,
)
from parmatch.gen import Instance, make_instance, periodic_instance
from parmatch.oracle import naive_all_matches
from parmatch.pattern import build_profile
from parmatch.predecessor import NEVER, LastOccurrence, pred_string
from parmatch import stream_matcher
from parmatch.stream_matcher import _BLOCK, _SCAN_BATCH, OP_BUDGET, StreamMatcher

from cores import core_state
from gaps import gap_instance
from misses import near_misses


def starts(matcher, m, text):
    return [e - m + 1 for e in matcher.scan(text)]


def prefix_fingerprint(sm, j):
    """The prefix fingerprint through arrival j and r^j, rebuilt from the
    block ring and the history the way the matcher's readers rebuild them."""
    b = 2 * (j // _BLOCK % (len(sm.blocks) // 2))
    fp = (sm.blocks[b] + sm.blocks[b + 1] * sm.hist_fp[j % sm.H]) % sm.p
    return fp, sm.blocks[b + 1] * sm.rtab[j % _BLOCK] % sm.p


def test_fallback_small_period():
    sm = StreamMatcher([0] * 50, 2)
    assert sm.mode == "det"


def test_fallback_short_pattern():
    sm = StreamMatcher(list(range(8)) * 4, 8)
    assert sm.mode == "det"


def test_forced_det_equals_auto():
    rng = random.Random(3)
    p = [rng.randrange(2) for _ in range(400)]
    t = [rng.randrange(2) for _ in range(2000)]
    auto = StreamMatcher(p, 2, seed=5)
    det = StreamMatcher(p, 2, mode="det", seed=5)
    assert auto.mode == "rand"
    assert starts(auto, 400, t) == starts(det, 400, t)


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_i_is_the_stream_index_in_both_modes(mode):
    rng = random.Random(3)
    p = [rng.randrange(2) for _ in range(400)]
    sm = StreamMatcher(p, 2, mode=mode, seed=5)
    assert sm.mode == mode and sm.i == -1
    sm.step(0)
    assert sm.i == 0
    sm.scan([rng.randrange(2) for _ in range(99)])
    assert sm.i == 99
    with pytest.raises(AlphabetError):
        sm.scan([0, 1, 2])
    assert sm.i == 102


def test_forced_det_builds_no_fingerprints(monkeypatch):
    # A rand-eligible pattern in forced det mode: the same matches as the
    # randomized route and the oracle, and no level fingerprint computed.
    from parmatch import pattern as pattern_mod

    calls = []

    def counted(ctx, seq, *span):
        calls.append(span)
        return fp_of_sequence(ctx, seq, *span)

    monkeypatch.setattr(pattern_mod, "fp_of_sequence", counted)
    inst = make_instance("planted", 1024, 4096, 4, seed=9)
    det = StreamMatcher(inst.pattern, 4, mode="det", seed=5)
    assert det.mode == "det" and calls == []
    auto = StreamMatcher(inst.pattern, 4, seed=5)
    assert auto.mode == "rand" and len(calls) == auto.s
    want = naive_all_matches(inst.pattern, inst.text)
    assert want
    assert starts(det, 1024, inst.text) == starts(auto, 1024, inst.text) == want


def test_det_and_auto_take_a_prime_below_the_alphabet():
    # p = 7 for 3 bits, below sigma = 8.  Only the randomized route uses
    # the prime, so [0, 1] * 300, which routes to det on its own, answers
    # as the oracle in auto and det mode; forced rand refuses it as
    # ineligible, not for its prime.
    rng = random.Random(4)
    pattern = [0, 1] * 300
    text = [rng.randrange(8) for _ in range(3000)]
    text[700:1300] = [5, 2] * 300
    want = naive_all_matches(pattern, text)
    assert want
    for mode in ("auto", "det"):
        sm = StreamMatcher(pattern, 8, mode=mode, prime_bits=3)
        assert sm.mode == "det"
        assert starts(sm, 600, text) == want
    with pytest.raises(ConfigError, match="not eligible"):
        StreamMatcher(pattern, 8, mode="rand", prime_bits=3)


def test_every_width_takes_any_alphabet_off_the_rand_route():
    # The width's range is the only prime check outside mode rand.  A
    # rand-eligible pattern builds at every width in auto mode too: on the
    # randomized route while m <= p, else on the deterministic one.
    rng = random.Random(3)
    eligible = [rng.randrange(2) for _ in range(400)]
    for bits in range(3, 63):
        for pattern, sigma in (([0], 1), ([0, 1, 2], 300), (eligible, 2)):
            det = StreamMatcher(pattern, sigma, mode="det", prime_bits=bits)
            auto = StreamMatcher(pattern, sigma, prime_bits=bits)
            rand = pattern is eligible and len(pattern) <= prime_for_bits(bits)
            assert (det.mode, auto.mode) == ("det", "rand" if rand else "det")
    for bits in (2, 63):
        with pytest.raises(ConfigError, match="outside supported range"):
            StreamMatcher([0, 1], 2, mode="det", prime_bits=bits)


def test_only_the_rand_route_builds_a_context(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return context_new(*args)

    monkeypatch.setattr(stream_matcher, "context_new", counted)
    assert StreamMatcher([0, 1] * 300, 2, seed=5).mode == "det"
    rng = random.Random(3)
    p = [rng.randrange(2) for _ in range(400)]
    assert StreamMatcher(p, 2, mode="det", seed=5).mode == "det"
    assert calls == []
    sm = StreamMatcher(p, 2, seed=5)
    assert sm.mode == "rand" and calls == [(61, 5)]
    ctx = context_new(61, 5)
    assert (sm.p, sm.rtab) == (ctx.p, power_table(ctx, _BLOCK))


def test_rand_targets_are_slices_and_fingerprints_of_pred():
    rng = random.Random(3)
    p = [rng.randrange(2) for _ in range(400)]
    sm = StreamMatcher(p, 2, seed=5)
    assert sm.mode == "rand"
    pp = pred_string(p)
    lens = sm.mlen
    assert sm.p0_last == pp[lens[0] - 1]
    assert sm.tail_target == pp[len(p) - sm.H :]
    ref = FieldContext(sm.p, sm.rtab[1])
    assert sm.level_fp == [0] + [
        fp_of_sequence(ref, pp[a:b]) for a, b in zip(lens, lens[1:])
    ]


def test_one_profile_per_construction(monkeypatch):
    # Phase A's core is built from a prefix cut from the pattern's own
    # profile, so a rand construction profiles the pattern once, and the
    # core's tables equal those of the prefix profiled on its own.
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return build_profile(*args)

    monkeypatch.setattr(stream_matcher, "build_profile", counted)
    inst = make_instance("planted", 3000, 3000, 4, seed=5)
    sm = StreamMatcher(inst.pattern, 4, seed=5)
    assert sm.mode == "rand" and calls == [3000]
    own = DetCore(build_profile(inst.pattern[: sm.m0 - 1], 4))
    for name in ("q", "rho", "runs", "occ", "cp_ks", "cp_cs", "pend_cap"):
        assert getattr(sm.suba, name) == getattr(own, name), name


def test_zeroing_is_needed_for_a_late_new_symbol():
    # A lone 3 arrives 101 arrivals before the plant, whose 3s all lie in
    # its last quarter.  The plant's first 3 recurs at a distance below m
    # that reaches past the window's start: a first occurrence in the
    # window, whose distance enters every level's zeroing queue and must
    # be subtracted from the level's split; without that the match is lost.
    m = 4096
    rng = random.Random(5)
    pattern = [rng.randrange(3) for _ in range(m)]
    for j in rng.sample(range(3 * m // 4, m), 40):
        pattern[j] = 3
    tail = [rng.randrange(3) for _ in range(100)]
    text = [rng.randrange(3) for _ in range(2 * m)] + [3]
    text += [rng.randrange(3) for _ in range(100)] + pattern + tail
    assert [s + m - 1 for s in naive_all_matches(pattern, text)] == [12388]
    sm = StreamMatcher(pattern, 4, seed=5)
    assert sm.mode == "rand"
    assert sm.scan(text) == [12388]
    assert all(sm.dq_next[1:])


@pytest.mark.parametrize("seed", [0, 1])
def test_final_character_rule_rejects_a_near_miss(seed):
    # The ladder base ends in a symbol new to the pattern; the text plants
    # the pattern with that symbol replaced by one seen before.  Only the
    # final-character rule tells the two apart: the DetCore runs on the
    # base minus its last symbol, and no later level covers it.
    m = 4096
    rng = random.Random(seed)
    base = [rng.randrange(3) for _ in range(m)]
    k = StreamMatcher(base, 4, seed=seed).m0 - 1
    pattern = base[:k] + [3] + [rng.randrange(2) for _ in range(m - k - 1)]
    sm = StreamMatcher(pattern, 4, seed=seed)
    assert sm.mode == "rand" and sm.m0 == k + 1 and 2 in pattern[:k]
    near = pattern[:k] + [2] + pattern[k + 1 :]
    text = [rng.randrange(2) for _ in range(m)] + near
    text += [rng.randrange(2) for _ in range(100)]
    assert naive_all_matches(pattern, text) == []
    assert sm.scan(text) == []


def test_mode_rand_rejects_ineligible():
    with pytest.raises(ConfigError):
        StreamMatcher([0] * 50, 2, mode="rand")


def test_empty_pattern_rejected():
    for mode in ("auto", "det", "rand"):
        with pytest.raises(UsageError, match="^empty pattern$"):
            StreamMatcher([], 2, mode=mode)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode 'fast'"):
        StreamMatcher([0, 1, 2, 3], 4, mode="fast")


def test_small_prime_accepted_for_a_large_alphabet():
    # p = 127 for 7 bits, below sigma = 300: the pattern routes to det,
    # which uses no prime.
    sm = StreamMatcher([0, 1, 1, 0], 300, prime_bits=7)
    assert sm.mode == "det"
    text = [299, 5, 5, 299, 7, 7, 299]
    assert starts(sm, 4, text) == naive_all_matches([0, 1, 1, 0], text) == [0, 3]


def test_pattern_longer_than_the_prime_goes_to_det_in_auto():
    # Symbol 3 recurs 1495 positions later, past the 7-bit prime 127, in
    # a rand-eligible pattern of 3000 symbols.  The randomized route
    # refuses any pattern longer than the prime when forced; auto mode
    # sends it to the deterministic engine, which takes it like forced
    # det with the same prime.
    rng = random.Random(3)
    pattern = [rng.randrange(3) for _ in range(3000)]
    pattern[5] = pattern[1500] = 3
    assert StreamMatcher(pattern, 4).mode == "rand"
    with pytest.raises(ConfigError) as exc:
        StreamMatcher(pattern, 4, mode="rand", prime_bits=7)
    assert str(exc.value) == "pattern length 3000 exceeds prime 127"
    text = [rng.randrange(4) for _ in range(9000)]
    text[4000:7000] = pattern
    want = [s + 2999 for s in naive_all_matches(pattern, text)]
    assert 6999 in want
    for mode in ("auto", "det"):
        sm = StreamMatcher(pattern, 4, mode=mode, prime_bits=7)
        assert sm.mode == "det"
        assert sm.scan(text) == want


def test_alphabet_violation_names_index():
    sm = StreamMatcher([0, 1] * 10, 2)
    sm.step(0)
    with pytest.raises(AlphabetError) as exc:
        sm.step(5)
    assert "index 1" in str(exc.value)


def test_randomized_equals_oracle_random_and_planted():
    rng = random.Random(17)
    n_rand = 0
    for t in range(40):
        kind = ("random", "planted")[t % 2]
        sigma = rng.choice([2, 4])
        m = rng.randint(260, 640) if sigma == 2 else rng.randint(520, 900)
        inst = make_instance(kind, m, 4 * m, sigma, seed=rng.randrange(2**31))
        sm = StreamMatcher(inst.pattern, sigma, seed=1234)
        if sm.mode == "rand":
            n_rand += 1
        assert starts(sm, m, inst.text) == naive_all_matches(
            inst.pattern, inst.text
        ), (kind, sigma, m, inst.seed)
    assert n_rand >= 20


def test_randomized_periodic_progressions():
    rng = random.Random(31)
    n_rand = 0
    total_matches = 0
    for _ in range(25):
        sigma = 2
        m = rng.randint(300, 800)
        delta = sigma * max(1, (m - 1).bit_length())
        block = 3 * delta + rng.randint(2, 30)
        inst = periodic_instance(m, 5 * m, sigma, seed=rng.randrange(2**31), block=block)
        sm = StreamMatcher(inst.pattern, sigma, seed=77)
        want = naive_all_matches(inst.pattern, inst.text)
        got = starts(sm, m, inst.text)
        assert got == want, (m, block, inst.seed)
        if sm.mode == "rand":
            n_rand += 1
            total_matches += len(want)
    assert n_rand >= 15
    assert total_matches > 100


def test_planted_match_reported_exactly_once_per_plant():
    rng = random.Random(5)
    p = [rng.randrange(2) for _ in range(300)]
    t = [rng.randrange(2) for _ in range(1500)]
    t[700:1000] = p
    sm = StreamMatcher(p, 2, seed=9)
    assert sm.mode == "rand"
    got = starts(sm, 300, t)
    assert naive_all_matches(p, t) == got
    assert 700 in got


def test_running_fingerprint_invariant_small_scale():
    rng = random.Random(123)
    p = [rng.randrange(2) for _ in range(280)]
    sm = StreamMatcher(p, 2, seed=6)
    assert sm.mode == "rand"
    text = [rng.randrange(2) for _ in range(900)]
    ref = FieldContext(sm.p, sm.rtab[1])
    for i, sym in enumerate(text):
        sm.step(sym)
        assert sm.hist_fp[i % sm.H] == sm.loc
        # Around every block boundary, and between them.
        if i % 97 == 0 or i % _BLOCK in (_BLOCK - 1, 0, 1):
            want = fp_of_sequence(ref, pred_string(text[: i + 1]))
            assert prefix_fingerprint(sm, i) == (want, pow(ref.r, i, ref.p)), i


def test_stream_shorter_than_pattern_reports_nothing():
    rng = random.Random(1)
    p = [rng.randrange(2) for _ in range(300)]
    sm = StreamMatcher(p, 2, seed=3)
    assert sm.mode == "rand"
    assert not any(sm.step(rng.randrange(2)) for _ in range(299))


def test_base_prefix_queue_receives_oracle_match_set():
    # Every match of the ladder base must enter the first queue, at the
    # arrival closing its window.
    rng = random.Random(14)
    p = [rng.randrange(2) for _ in range(320)]
    sm = StreamMatcher(p, 2, seed=21)
    assert sm.mode == "rand"
    m0 = sm.m0
    text = [rng.randrange(2) for _ in range(1500)]
    text[400 : 400 + m0] = p[:m0]
    q0 = sm.mq[0]
    pushes = []
    for sym in text:
        before = q0.last_pos
        sm.step(sym)
        if q0.last_pos != before:
            pushes.append(q0.last_pos)
    assert pushes == naive_all_matches(p[:m0], text)


def test_distance_buffer_behavior():
    rng = random.Random(6)
    p = [rng.randrange(2) for _ in range(300)]
    # every symbol repeats within the base length: nothing buffered
    sm = StreamMatcher(p, 2, seed=4)
    assert sm.mode == "rand"
    sm.scan([0, 1] * 2000)
    assert sm.b_peak == 0
    # a symbol recurring at a distance beyond every ladder length below
    # the top, and below m, lands in every level's zeroing queue; at a
    # distance of m or more it is a first occurrence in every window, and
    # nothing is buffered
    for dist, pushed in ((len(p) - 1, 1), (len(p), 0), (len(p) + 1, 0)):
        sm = StreamMatcher(p, 2, seed=4)
        assert sm.mlen[-2] < len(p) - 1
        text = [0] + [1] * (dist - 1) + [0] + [1] * 50
        sm.scan(text)
        assert sm.b_peak == pushed, dist
        assert all(n == pushed for n in sm.dq_next[1:]), dist


def test_level_checks_compute_window_relative_fingerprints():
    # Every completed level check must equal the fingerprint of the
    # window-relative predecessor string over the level's second half,
    # recomputed here from scratch.
    rng = random.Random(20)
    m = 500
    delta = 2 * max(1, (m - 1).bit_length())
    inst = periodic_instance(m, 6 * m, 2, seed=4, block=3 * delta + 9)
    sm = StreamMatcher(inst.pattern, 2, seed=8)
    assert sm.mode == "rand"
    sm.debug_checks = checks = []
    sm.scan(inst.text)
    assert len(checks) > 10
    lens = sm.mlen
    ref = FieldContext(sm.p, sm.rtab[1])
    for ell, ip, acc in checks:
        window = inst.text[ip : ip + lens[ell]]
        want = fp_of_sequence(ref, pred_string(window)[lens[ell - 1] :])
        assert acc == want, (ell, ip)


def test_false_matches_stay_within_the_collision_bound():
    # A 10-bit prime (p = 1021) over fixed fingerprint seeds.  Each window
    # of the text is the pattern, relabelled or not, with a stretch of 1-40
    # symbols redrawn inside the last level's second half [lo, hi) and
    # outside the phase C tail [hi, m): every lower level passes, and only
    # the last level's check, over |S| = hi - lo positions, can tell a near
    # miss, which phase C then cannot.  A false pass there is a false match.
    # Karp & Rabin bound each such check by |S| / (p - 1); with N checks
    # the false matches stay below N*q + 4 standard deviations of
    # Binomial(N, q), q = |S| / (p - 1).  (The real rate is near 1/p: 3
    # false matches in 3600 checks here.)  No window that matches may be
    # missed, and no bound may be breached.
    m = 600
    rng = random.Random(21)
    pattern = [rng.randrange(2) for _ in range(m)]
    probe = StreamMatcher(pattern, 2, mode="rand", prime_bits=10)
    p, lo, hi = probe.p, probe.mlen[-2], probe.mlen[-1]
    assert (p, lo, hi) == (1021, 256, m - probe.H)
    want = pred_string(pattern)
    text = []
    for _ in range(40):
        window = list(pattern)
        a = rng.randrange(lo, hi - 50)
        b = a + rng.randint(1, 40)
        window[a:b] = [rng.randrange(2) for _ in range(b - a)]
        assert pred_string(window)[hi:] == want[hi:]
        if rng.randrange(2):
            window = [1 - x for x in window]
        text += window
    ends = {s + m - 1 for s in naive_all_matches(pattern, text)}
    checks = 100 * (40 - len(ends))
    false = 0
    for seed in range(100):
        sm = StreamMatcher(pattern, 2, mode="rand", prime_bits=10, seed=seed)
        got = set(sm.scan(text))
        assert ends <= got, seed
        false += len(got - ends)
    q = (hi - lo) / (p - 1)
    assert checks >= 3000
    assert false <= checks * q + 4 * (checks * q * (1 - q)) ** 0.5


def test_bounds_on_adversarial_gaps():
    # Every symbol but the filler recurs in bursts at m - 11, inside
    # (m0, m), so the buffer and every zeroing queue are loaded.
    sigma = 4
    m = 2100
    inst = gap_instance(m, 12 * m, sigma, seed=8, gap=m - 11)
    sm = StreamMatcher(inst.pattern, sigma, seed=3)
    assert sm.mode == "rand" and sm.m0 < m - 11
    sm.scan(inst.text)
    assert 0 < sm.b_peak <= sigma
    assert 0 < sm.d_fill_max() <= 12 * sigma


def test_ops_within_budget_and_space_gauge():
    inst = make_instance("planted", 4096, 12288, 4, seed=11)
    sm = StreamMatcher(inst.pattern, 4, seed=2)
    assert sm.mode == "rand"
    sm.scan(inst.text)
    assert 0 < sm.max_ops() <= OP_BUDGET
    assert sm.live_words_peak() > 0


def test_ladder_corner_routes_are_exact():
    # A long low-period prefix pushes the ladder base past the midpoint:
    # degenerate two-level ladder.  Breaking only within 7*delta of the
    # end leaves no schedulable gap: deterministic fallback.
    rng = random.Random(2)
    sigma, m = 2, 1000
    block = [rng.randrange(sigma) for _ in range(10)]
    late = [block[j % 10] for j in range(600)] + [
        rng.randrange(sigma) for _ in range(400)
    ]
    very_late = [block[j % 10] for j in range(960)] + [
        rng.randrange(sigma) for _ in range(40)
    ]
    for pattern, want_mode in ((late, "rand"), (very_late, "det")):
        text = [rng.randrange(sigma) for _ in range(5000)]
        text[1200:2200] = pattern
        text[3000:4000] = pattern
        sm = StreamMatcher(pattern, sigma, seed=5)
        assert sm.mode == want_mode
        if want_mode == "rand":
            assert len(sm.mlen) == 2  # base plus sole successor
        got = starts(sm, m, text)
        want = naive_all_matches(pattern, text)
        assert got == want and len(got) >= 2


def tiled(rng, sigma, block, m):
    b = [rng.randrange(sigma) for _ in range(block)]
    return [b[j % block] for j in range(m)]


def noise(rng, sigma, n):
    return [rng.randrange(sigma) for _ in range(n)]


@pytest.mark.parametrize(
    "sigma, pattern_of, edge, want_mode",
    [
        # m = 14*delta routes det and m = 14*delta + 1 rand (delta = 16).
        (2, lambda rng: noise(rng, 2, 224), ("m", 0), "det"),
        (2, lambda rng: noise(rng, 2, 225), ("m", 1), "rand"),
        # rho = 3*delta routes det and rho = 3*delta + 1 rand (delta = 18).
        (2, lambda rng: tiled(rng, 2, 54, 300), ("rho", 0), "det"),
        (2, lambda rng: tiled(rng, 2, 55, 300), ("rho", 1), "rand"),
        # The degenerate two-level ladder, and just past it.
        (2, lambda rng: tiled(rng, 2, 10, 600) + noise(rng, 2, 400), None, "rand"),
        (2, lambda rng: tiled(rng, 2, 10, 960) + noise(rng, 2, 40), None, "det"),
        # A unary alphabet always routes det.
        (1, lambda rng: [0] * 300, None, "det"),
    ],
    ids=[
        "m=14d", "m=14d+1", "rho=3d", "rho=3d+1", "degenerate", "past-degenerate",
        "sigma=1",
    ],
)
def test_routing_boundaries_agree_with_oracle(sigma, pattern_of, edge, want_mode):
    # Auto and forced det agree with the oracle on both sides of each
    # routing edge, over a text with two relabelled plants.
    rng = random.Random(13)
    pattern = pattern_of(rng)
    m = len(pattern)
    prof = build_profile(pattern, sigma)
    delta = prof.ladder.delta
    if edge is not None:
        what, offset = edge
        value, bound = (m, 14 * delta) if what == "m" else (prof.rho, 3 * delta)
        assert value == bound + offset
    text = noise(rng, sigma, 6 * m)
    for start in (m, 4 * m):
        perm = list(range(sigma))
        rng.shuffle(perm)
        text[start : start + m] = [perm[sym] for sym in pattern]
    auto = StreamMatcher(pattern, sigma, seed=5)
    det = StreamMatcher(pattern, sigma, mode="det", seed=5)
    assert auto.mode == want_mode and det.mode == "det"
    want = naive_all_matches(pattern, text)
    assert len(want) >= 2
    assert starts(auto, m, text) == starts(det, m, text) == want


def routing_rule(prof):
    """build_ladder's routing, restated from the profile's periods."""
    m, d, periods = prof.m, prof.ladder.delta, prof.periods
    if m <= 14 * d or periods[m] <= 3 * d:
        return "det"
    m0 = next(r for r in range(1, m + 1) if periods[r] > 3 * d)
    return "rand" if m0 <= m - 7 * d else "det"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from(["m", "rho", "degenerate"]),
    st.integers(-3, 3),
    st.integers(0, 2**32),
)
def test_routing_edges_agree_with_oracle(sigma, edge, offset, seed):
    # Patterns within a few symbols of each routing edge: m around
    # 14*delta, a tiled block around 3*delta, and a tiled head that puts
    # the ladder base around m - 7*delta (the degenerate ladder).  L is
    # the smallest ceil(log2 m) that leaves room for m > 14*delta.
    rng = random.Random(seed)
    L = next(L for L in range(1, 64) if 14 * sigma * L + 3 <= 1 << L)
    delta = sigma * L
    if edge == "m":
        pattern = noise(rng, sigma, 14 * delta + offset)
    else:
        m = rng.randint(14 * delta + 1, 1 << L)
        if edge == "rho":
            pattern = tiled(rng, sigma, 3 * delta + offset, m)
        else:
            head = m - 7 * delta + 3 * offset
            pattern = tiled(rng, sigma, rng.randint(1, 3 * delta), head)
            pattern += noise(rng, sigma, m - head)
    m = len(pattern)
    prof = build_profile(pattern, sigma)
    assert prof.ladder.delta == delta
    want_mode = routing_rule(prof)
    assert prof.ladder.mode == want_mode
    text = noise(rng, sigma, 6 * m)
    for start in (m, 4 * m):
        perm = list(range(sigma))
        rng.shuffle(perm)
        text[start : start + m] = [perm[sym] for sym in pattern]
    auto = StreamMatcher(pattern, sigma, seed=5)
    det = StreamMatcher(pattern, sigma, mode="det", seed=5)
    assert auto.mode == want_mode and det.mode == "det"
    want = naive_all_matches(pattern, text)
    assert len(want) >= 2
    assert starts(auto, m, text) == starts(det, m, text) == want


def test_det_and_rand_agree_on_long_streams():
    rng = random.Random(77)
    p = [rng.randrange(4) for _ in range(600)]
    t = [rng.randrange(4) for _ in range(6000)]
    t[2000:2600] = p
    rand = StreamMatcher(p, 4, seed=10)
    det = DetMatcher(build_profile(p, 4))
    assert rand.mode == "rand"
    a = starts(rand, 600, t)
    b = [e - 600 + 1 for e in det.scan(t)]
    assert a == b


# Slots matcher_state leaves out or reads in its own way: the state
# record is read by the names in `_STATE`.
LEFT_OUT = (
    "det",
    "tracker",
    "suba",
    "bbuf",
    "mq",
    "debug_checks",
    "run",
    "state",
    "__weakref__",
)


def matcher_state(sm):
    """Everything a randomized matcher carries between arrivals."""
    return {
        "matcher": {
            name: getattr(sm, name)
            for name in StreamMatcher.__slots__ + StreamMatcher._STATE
            if name not in LEFT_OUT
        },
        "table": None if sm.tracker is None else list(sm.tracker.table),
        "bbuf": list(sm.bbuf),
        "mq": [(list(map(list, q.segs)), q.last_pos, q.words) for q in sm.mq],
        "d_fill_max": sm.d_fill_max(),
        "suba": core_state(sm.suba),
    }


def tail_mismatches(m, n, seed):
    """The periodic instance's pattern and a text that differs from it in
    one symbol ten positions before the end of a matching window, in every
    window that holds no earlier change: those windows' level checks pass,
    and their tail checks close on a mismatch."""
    inst = make_instance("periodic", m, n, 4, seed=seed)
    text = list(inst.text)
    cut = -m
    for s in naive_all_matches(inst.pattern, text):
        if s + m - 11 - cut >= m:
            cut = s + m - 11
            text[cut] = (text[cut] + 1) % 4
    return inst.pattern, text


def tail_closes(sm, text):
    """Step `text` through `sm`; the arrivals where a tail check closed on
    a mismatch."""
    closes = []
    for j, sym in enumerate(text):
        open_check = sm.c_ip >= 0
        if not sm.step(sym) and open_check and sm.c_ip < 0:
            closes.append(j)
    return closes


@pytest.mark.parametrize(
    "kind, m, n, seed",
    [
        ("planted", 3000, 9000, 5),
        ("periodic", 2500, 10000, 2),
        ("mismatched", 2500, 10000, 2),
        ("long_gap", 2100, 9000, 8),
    ],
)
def test_scan_chunks_equal_step(kind, m, n, seed):
    # A matcher fed chunk by chunk through scan and one stepped through
    # the same chunks agree on every answer and on their whole state
    # after each chunk.  Chunks of H + _BLOCK + 1 hold quiet stretches
    # longer than the history, which write the entries of their last H
    # arrivals only; H is a multiple of 4, so over 32 chunks the first of
    # those falls at every offset of a block.  On the mismatched periodic
    # text, tail checks compare inside stretches and close on a mismatch.
    if kind == "long_gap":
        # Recurrences inside (m0, m), which load the buffers.
        inst = gap_instance(m, n, 4, seed, gap=m - 11)
        pattern, text = inst.pattern, inst.text
    elif kind == "mismatched":
        pattern, text = tail_mismatches(m, n, seed)
    else:
        inst = make_instance(kind, m, n, 4, seed=seed)
        pattern, text = inst.pattern, inst.text
    want = [s + m - 1 for s in naive_all_matches(pattern, text)]
    H = StreamMatcher(pattern, 4, seed=12).H
    for chunk in (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, H + _BLOCK + 1, 4096, n):
        stepped = StreamMatcher(pattern, 4, seed=12)
        scanned = StreamMatcher(pattern, 4, seed=12)
        assert stepped.mode == "rand"
        stepped.debug_checks = []
        scanned.debug_checks = []
        by_step, by_scan = [], []
        for k in range(0, n, chunk):
            piece = text[k : k + chunk]
            by_step += [k + j for j, sym in enumerate(piece) if stepped.step(sym)]
            by_scan += scanned.scan(piece)
            assert matcher_state(scanned) == matcher_state(stepped), (chunk, k)
        assert by_step == by_scan == want, chunk
        assert scanned.debug_checks == stepped.debug_checks, chunk
    if kind == "periodic":
        assert want and len(stepped.debug_checks) > 10
    if kind == "mismatched":
        assert tail_closes(StreamMatcher(pattern, 4, seed=12), text) == [2489, 5297, 8105]
    if kind == "long_gap":
        assert stepped.b_peak > 0 and stepped.d_fill_max() > 0


def periodic_misses():
    """The periodic instance of the stretch tests, with ten near misses of
    its ladder base minus its last symbol, phase A's pattern: a base
    prefix match fails at a matched length of K or more, and phase A's
    core defers arrivals."""
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    m0 = StreamMatcher(inst.pattern, 4, seed=12).m0
    return inst.pattern, near_misses(inst.pattern, inst.text, range(4), 11, 10, m0 - 1)


class StretchLog:
    """Stands in for a matcher's phase-A core generator: passes every send
    and throw on, logs each quiet stretch sent as one chunk as (its first
    arrival, the last it ran, whether a base-prefix match ended it), the
    first and last of those sent with an int64 array, and each send that
    raised as (its arrival, whether it was a stretch's)."""

    def __init__(self, sm):
        self.core = sm.suba
        self.run = self.core._start()
        self.core.run = self
        self.stretches = []
        self.arrays = []
        self.raised = []

    def send(self, msg):
        first = self.core.i + 1
        try:
            reply = self.run.send(msg)
        except StructuralViolation:
            self.raised.append((self.core.i, type(msg) is tuple))
            raise
        if type(msg) is tuple:
            self.stretches.append((first, self.core.i, reply < 0))
            if type(msg[0]) is np.ndarray:
                self.arrays.append(self.stretches[-1][:2])
        return reply

    def throw(self, exc):
        return self.run.throw(exc)


@pytest.mark.parametrize(
    "boundary, cap",
    [
        ("match", None),
        ("deadline", None),
        ("long", None),
        ("idle turn", None),
        ("scan turn", None),
        ("waiting", None),
        ("mismatch", None),
        ("verdict", None),
        ("overflow", 5),
        ("overflow", 4),
        ("overflow", 3),
        ("tail budget", 1),
        ("history", 4),
    ],
)
def test_quiet_stretches_end_where_a_stepped_run_leaves_the_quiet_branch(
    monkeypatch, boundary, cap
):
    # Inside a chunk, the arrivals where nothing is due run in bulk, and a
    # due one runs alone, where a stepped run's phases B or C act: right
    # after a base-prefix match (the next arrival pushes it), at an idle
    # level's first turn past its queue head's deadline (with no match
    # queued behind the head, or with some), before a distance in
    # (m0, m), at a later turn of a level that checks, and before a tail
    # check's mismatch or verdict.  An idle level's turn before its queue
    # head's deadline is crossed.  A deferral overflow never comes inside
    # a stretch: on the periodic stream with near misses, a near miss of
    # phase A's pattern fails at arrival 1392, which ends the stretch from
    # 1281 and runs alone, and each arrival after it finds the core busy,
    # runs alone and waits, so caps 3, 4 and 5 overflow at arrivals 1396,
    # 1397 and 1398, each sent on its own.  A tail budget of 1 never
    # catches a tail check up, and a quarter of the history expires before
    # a split: both raise where a stepped run does.  Chunks of 1000 put
    # each boundary inside a chunk; after every call, the whole state
    # equals a stepped run's, the front end's table, ops and words
    # included.  An error ends both streams at the same arrival, with the
    # same state but for the front end's table, which the scan filled
    # through its chunk, and the same matches, and both refuse to go on.
    if boundary == "long":
        inst = gap_instance(2100, 9000, 4, 8, gap=2100 - 11)
        pattern, text = inst.pattern, inst.text
    elif boundary in ("match", "deadline"):
        inst = make_instance("planted", 3000, 9000, 4, seed=5)
        pattern, text = inst.pattern, inst.text
    elif boundary == "mismatch":
        pattern, text = tail_mismatches(2500, 10000, 2)
    elif boundary == "scan turn":
        pattern, text = BLOCKS
    elif boundary == "overflow":
        pattern, text = periodic_misses()
    else:
        inst = make_instance("periodic", 2500, 10000, 4, seed=2)
        pattern, text = inst.pattern, inst.text
    if boundary == "tail budget":
        monkeypatch.setattr(stream_matcher, "_C_BUDGET", cap)
    scanned, stepped = (StreamMatcher(pattern, 4, seed=12) for _ in range(2))
    assert scanned.mode == "rand"
    # Read when the generators start, which StretchLog does for the core.
    if boundary == "overflow":
        scanned.suba.pend_cap = stepped.suba.pend_cap = cap
    if boundary == "history":
        scanned.H = stepped.H = stepped.H // cap
    log = StretchLog(scanned)
    by_scan, by_step, errors = [], [], []
    # What a stepped run's phases do at each arrival, from the level whose
    # turn it is and the tail check as they stand before it.
    events = {}
    s = stepped.s
    k = 0
    while k < len(text):
        try:
            scanned.scan(text[k : k + 1000], by_scan)
        except StructuralViolation as e:
            errors.append((str(e), scanned.i))
        for j in range(k, scanned.i + 1):
            ell = 1 + j % s
            scanning = stepped.lv_ip[ell] >= 0
            queue = stepped.mq[ell - 1]
            due = queue.segs[0][0] + stepped.mlen[ell] + stepped.delta if queue.segs else None
            behind = len(queue) > 1
            checking = stepped.c_ip >= 0
            try:
                if stepped.step(text[j]):
                    by_step.append(j)
                    events[j] = "verdict"
                elif checking and stepped.c_ip < 0:
                    events[j] = "mismatch"
            except StructuralViolation as e:
                errors.append((str(e), j))
            if stepped.mq[0].last_pos == j - stepped.m0 + 1:
                events[j] = "match"
            elif scanning:
                events.setdefault(j, "scan turn")
            elif due is not None and j > due:
                events.setdefault(j, "idle turn" if behind else "deadline")
            elif due is not None:
                events.setdefault(j, "waiting")
        if errors:
            break
        assert matcher_state(scanned) == matcher_state(stepped), k
        k = scanned.i + 1
    if errors:
        # Both ran the raising arrival alone, up to the raise.
        assert {**matcher_state(scanned), "table": None} == {
            **matcher_state(stepped), "table": None
        }
    assert by_scan == by_step
    inside = [
        (first, last, end)
        for first, last, end in log.stretches
        if first <= last and (last + 1) % 1000
    ]
    if boundary == "long":
        pv = pred_string(text)
        assert any(scanned.m0 < pv[last + 1] < 2100 for _, last, _ in inside)
    elif boundary == "waiting":
        assert any(
            events.get(j) == "waiting" for first, last, _ in inside for j in range(first, last + 1)
        )
    elif cap is None:
        assert any(events.get(last + 1) == boundary for _, last, _ in inside)
    if boundary == "overflow":
        at = 1393 + cap
        assert errors == [(f"deferral buffer exceeded capacity {cap}", at)] * 2
        assert (1281, 1391, False) in log.stretches
        assert log.raised == [(at, False)]
        assert scanned.i == stepped.i == at
        for sm in (scanned, stepped):
            with pytest.raises(UsageError, match="deferral buffer exceeded"):
                sm.scan(text[at + 1 :])
            assert sm.i == at
    elif cap is not None:
        # The error's arrival ran alone, after stretches that compared
        # tail positions or crossed idle levels' turns before their queue
        # heads' deadlines.
        at = errors[0][1]
        why = "tail check behind schedule" if cap == 1 else "fingerprint history expired"
        assert errors[0][0].startswith(why) and errors == [errors[0]] * 2
        assert inside and all(last < at for _, last, _ in log.stretches)
        assert scanned.i == stepped.i == at
    else:
        assert by_scan == [s + len(pattern) - 1 for s in naive_all_matches(pattern, text)]


def test_long_stretches_run_the_kernels_and_keep_the_state_exact(monkeypatch):
    # Chunks of 1000 from arrival 9 on hold stretches longer than
    # _LONG_STRETCH that start and end mid-block, read in pieces whose
    # block sums come from the kernel and whose arrivals phase A's core
    # takes in bulk below K.  Relabelled copies of phase A's pattern make
    # windows that bring the core to K: its first K symbols ending at the
    # fifth arrival of a stretch (the window reaches before it) and at a
    # stretch's last arrival, and all of it, a base-prefix match, ending
    # mid-stretch.  After every chunk the whole state equals a stepped
    # twin's, and so do the answers.
    rng = random.Random(9)
    inst = make_instance("planted", 3000, 9000, 4, seed=5)
    pattern = inst.pattern
    text = [rng.randrange(4) for _ in range(6000)]
    scanned, stepped = (StreamMatcher(pattern, 4, seed=12) for _ in range(2))
    m0 = scanned.m0
    for end, n in ((1010 + 4, K), (2500, m0 - 1), (3008, K)):
        relabel = rng.sample(range(4), 4)
        text[end - n + 1 : end + 1] = [relabel[x] for x in pattern[:n]]
    sums, windows = [], []
    find = det_matcher._first_window

    def block_sums(a, limbs):
        sums.append(len(a))
        return fingerprint.block_sums(a, limbs)

    def first_window(a, probes, head):
        windows.append((find(a, probes, head), len(a)))
        return windows[-1][0]

    monkeypatch.setattr(stream_matcher, "block_sums", block_sums)
    monkeypatch.setattr(det_matcher, "_first_window", first_window)
    log = StretchLog(scanned)
    by_scan, by_step = [], []
    for k in (0, *range(9, len(text), 1000)):
        piece = text[k : k + (9 if k == 0 else 1000)]
        by_scan += scanned.scan(piece)
        by_step += [k + j for j, sym in enumerate(piece) if stepped.step(sym)]
        assert matcher_state(scanned) == matcher_state(stepped), k
    assert by_scan == by_step
    long = [
        (first, last)
        for first, last, _ in log.stretches
        if last - first >= stream_matcher._LONG_STRETCH
    ]
    assert long and all(first % _BLOCK and (last + 1) % _BLOCK for first, last in long)
    # The table from r finds the window that reaches before its stretch,
    # and the filter the others: the base's first K symbols, ending 101
    # arrivals into a piece from 2266, whose stretch ends with the base's
    # match, and the window at a stretch's last arrival.
    assert sums and len(windows) > 10
    assert any(first == 1010 and last >= 1014 for first, last, _ in log.stretches)
    assert (2500 - (m0 - 1) + K - 2266, 512) in windows
    assert (2266, 2500, True) in log.stretches
    assert (3008 - 2957, 52) in windows and (2957, 3008, False) in log.stretches


def test_a_chunk_is_read_into_one_array():
    # One chunk of 3000 arrivals whose burst symbols recur every 1200
    # arrivals, inside (m0, m): each recurrence, and the arrivals that
    # distribute it, run alone, between long stretches.  Every piece of
    # every long stretch reaches phase A's core as a view of one int64
    # array, read once for the chunk and dropped at its end, and the
    # whole state then equals a stepped twin's.
    inst = gap_instance(2100, 3000, 4, 8, gap=1200)
    scanned, stepped = (StreamMatcher(inst.pattern, 4, seed=12) for _ in range(2))
    assert scanned.mode == "rand" and scanned.m0 < 1200
    log = StretchLog(scanned)
    arrays = []
    send = log.send

    def spy(msg):
        # Every array a message carries, in whichever field.
        if type(msg) is tuple:
            arrays.extend(x for x in msg if type(x) is np.ndarray)
        return send(msg)

    log.send = spy
    scanned.scan(inst.text)
    for sym in inst.text:
        stepped.step(sym)
    assert matcher_state(scanned) == matcher_state(stepped)
    base = arrays[0].base
    assert base is not None and all(a.base is base for a in arrays)
    assert len(base) == 3000
    # Long stretches before, between and after the recurrences.
    assert {first // 1200 for first, _ in log.arrays} == {0, 1, 2}
    dropped = weakref.ref(base)
    del arrays[:], base
    assert dropped() is None


def test_arrivals_that_find_the_core_busy_run_alone():
    # On the periodic stream with near misses, a near miss of phase A's
    # pattern fails at arrival 1392 and enters the core's shift machinery,
    # and the core is busy at each arrival up to 1402, which drains its
    # deferral buffer.  A chunk that starts at 1397 runs each of 1398 ..
    # 1402 alone, with no stretch sent while the core has arrivals
    # deferred; from 1403 on, the arrivals run in stretches again.  After
    # the chunk the whole state equals a stepped run's, the words gauge's
    # peak included.
    pattern, text = periodic_misses()
    stepped = StreamMatcher(pattern, 4, seed=12)
    busy = []
    for j, sym in enumerate(text[:1447]):
        if stepped.suba.phase != _IDLE or stepped.suba.pending:
            busy.append(j)
        stepped.step(sym)
    assert [j for j in busy if j > 1300] == list(range(1393, 1403))
    scanned = StreamMatcher(pattern, 4, seed=12)
    log = StretchLog(scanned)
    scanned.scan(text[:1397])
    before = len(log.stretches)
    scanned.scan(text[1397:1447])
    assert log.stretches[before:] == [(1403, 1404, False), (1406, 1446, False)]
    assert scanned.live_words_peak() == stepped.live_words_peak()
    assert matcher_state(scanned) == matcher_state(stepped)
    # Over the whole stream in chunks of 997, every stretch is sent to a
    # core that has consumed every arrival fed, and takes at least one
    # arrival: none begins at a busy core (with nothing deferred, 10 did
    # while phase A tested only the deferral buffer), and on this stream
    # none at a failed first comparison.  Every array sent is taken.
    whole = StreamMatcher(pattern, 4, seed=12)
    log = StretchLog(whole)
    for k in range(0, len(text), 997):
        whole.scan(text[k : k + 997])
    assert sum(last < first for first, last, _ in log.stretches) == 0
    assert log.arrays and all(first <= last for first, last in log.arrays)


def test_a_periodic_stream_runs_mostly_in_stretches():
    # The share of a periodic stream's arrivals that run in bulk, as
    # StretchLog counts them over chunks of 4096: 9524 of 10000, in 176
    # stretches.  While any queued match made an arrival busy, and a
    # stretch could start only after a quiet arrival, it was 902, in 7.
    # A change that turns the bulk path off fails here without a timing.
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    log = StretchLog(sm)
    for k in range(0, 10000, 4096):
        sm.scan(inst.text[k : k + 4096])
    inside = sum(last - first + 1 for first, last, _ in log.stretches)
    assert (inside, len(log.stretches)) == (9524, 176)


@pytest.mark.parametrize(
    "kind, m, n, seed, pinned",
    [
        (
            "planted", 3000, 9000, 5,
            (81474, 29, 315, 26, 9000, 2, 8969, 17, 11, 1861, 0),
        ),
        (
            "periodic", 2500, 10000, 2,
            (91441, 37, 468, 26, 10000, 5, 9948, 26, 22, 1881, 0),
        ),
        (
            # Its recurrences, past m, are first occurrences: only the
            # near misses bring distances in (m0, m) to Bdelta.
            "long_gap", 2100, 9000, 8,
            (81302, 49, 276, 14, 9000, 3, 8964, 14, 14, 1662, 2),
        ),
    ],
)
def test_phase_a_accounting_is_pinned_arrival_by_arrival(kind, m, n, seed, pinned):
    # Phase A's DetCore counts its work per arrival, and the ops the
    # randomized step charges follow from the symbols it consumes.  A
    # cheaper or wrong path can keep every answer right and only move
    # these totals, so they are pinned: the sums of ops, shifts and units,
    # the largest ops, the symbols consumed, the deferral peak, the
    # arrivals committed by the fast path (idle, one symbol, no shift),
    # the arrivals that consumed no symbol or more than one, the words
    # gauge's peak and the distance buffer's.  Ten near misses of phase
    # A's pattern, which spare the plants, make its core leave the table
    # path.
    inst = make_instance(kind, m, n, 4, seed=seed)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    assert sm.mode == "rand"
    plants = naive_all_matches(inst.pattern, inst.text) if kind == "planted" else ()
    text = near_misses(inst.pattern, inst.text, range(4), seed, 10, sm.m0 - 1, plants)
    ends = {s + m - 1 for s in naive_all_matches(inst.pattern, text)}
    core = sm.suba
    ops = shifts = units = fast = deferred = caught_up = 0
    for j, sym in enumerate(text):
        idle = core.phase == _IDLE and not core.pending
        consumed = core.consumed
        assert sm.step(sym) == (j in ends), j
        took = core.consumed - consumed
        ops += sm.ops_last
        shifts += core.shifts_last
        units += core.units_last
        fast += idle and took == 1 and core.shifts_last == 0
        deferred += took == 0
        caught_up += took > 1
    got = (ops, shifts, units, sm.max_ops(), core.consumed, core.pend_peak, fast)
    assert got + (deferred, caught_up, sm.live_words_peak(), sm.b_peak) == pinned


def test_phase_a_stays_within_its_stated_caps():
    # A test carried over from the previous arrival may commit before the
    # core pops CONSUMES_PER_ARRIVAL fresh symbols, so phase A consumes at
    # most one more than that, and charges at most 1 + 3 + 3 = 7 ops (the
    # push to the base queue included): its share of OP_BUDGET.  The
    # periodic stream with near misses reaches three symbols, so the caps
    # are met, not only unseen.
    pattern, text = periodic_misses()
    sm = StreamMatcher(pattern, 4, seed=12)
    assert sm.mode == "rand"
    core, q0 = sm.suba, sm.mq[0]
    at_cap = 0
    for j, sym in enumerate(text):
        consumed = core.consumed
        sm.step(sym)
        took = core.consumed - consumed
        pushed = q0.last_pos == j - sm.m0 + 1
        assert took <= CONSUMES_PER_ARRIVAL + 1, j
        assert 1 + took + 3 * pushed <= 7, j
        at_cap += took == CONSUMES_PER_ARRIVAL + 1
    assert at_cap == 5


def test_scan_rejects_a_symbol_like_step():
    # Both matchers stop at the rejected symbol in the same state, and go
    # on from the next one with the same answers.
    inst = make_instance("planted", 2048, 6000, 4, seed=2)
    bad = 3001
    text = list(inst.text)
    text[bad] = 4
    text[3500 : 3500 + 2048] = [(x + 1) % 4 for x in inst.pattern]
    stepped = StreamMatcher(inst.pattern, 4, seed=3)
    assert stepped.mode == "rand"
    by_step = []
    with pytest.raises(AlphabetError) as step_err:
        for i, sym in enumerate(text):
            if stepped.step(sym):
                by_step.append(i)
    scanned = StreamMatcher(inst.pattern, 4, seed=3)
    by_scan = scanned.scan(text[:2990])
    with pytest.raises(AlphabetError) as scan_err:
        scanned.scan(text[2990:3100], by_scan)
    assert step_err.value.index == scan_err.value.index == bad
    assert scanned.i == bad
    assert matcher_state(scanned) == matcher_state(stepped)
    by_step += [i for i in range(bad + 1, len(text)) if stepped.step(text[i])]
    scanned.scan(text[bad + 1 :], by_scan)
    assert by_step == by_scan == [2760, 5547]
    assert matcher_state(scanned) == matcher_state(stepped)


def feed_past_errors(sm, text, chunk):
    """Feed `text` in chunks (through `step` when chunk is 1), going on
    from the symbol after each error; returns (match ends, [(error type,
    index, message)])."""
    ends, errors = [], []
    k = 0
    while k < len(text):
        try:
            if chunk == 1:
                if sm.step(text[k]):
                    ends.append(k)
            else:
                sm.scan(text[k : k + chunk], ends)
        except AlphabetError as e:
            errors.append((type(e), sm.i, str(e)))
        k = sm.i + 1
    return ends, errors


@pytest.mark.parametrize(
    "bits, n, at", [(13, 12000, 8500), (17, 140000, 131300)], ids=["13", "17"]
)
def test_scan_runs_past_a_distance_beyond_the_prime_like_step(bits, n, at):
    # With a small prime (p = 8191 or 131071), symbol 3 stands only at
    # offset 50 of each plant, and returns at index `at` after more than p
    # arrivals: a first occurrence in the plant's window, like any
    # distance of at least m.  Step and scan run to the end of the text
    # with the oracle's answers, that plant's match included, and with the
    # same state, the front end's table included.
    rng = random.Random(6)
    pattern = [rng.randrange(3) for _ in range(600)]
    pattern[50] = 3
    text = [rng.randrange(3) for _ in range(n)]
    for start in [50, *range(at - 50, n - 600, 1400)]:
        text[start : start + 600] = [x if x == 3 else (x + 1) % 3 for x in pattern]
    stepped = StreamMatcher(pattern, 4, mode="rand", prime_bits=bits, seed=4)
    scanned = StreamMatcher(pattern, 4, mode="rand", prime_bits=bits, seed=4)
    assert stepped.p == (1 << bits) - 1 <= at - 100
    by_step = [i for i, sym in enumerate(text) if stepped.step(sym)]
    by_scan = []
    for k in range(0, n, 4096):
        scanned.scan(text[k : k + 4096], by_scan)
    want = [s + 599 for s in naive_all_matches(pattern, text)]
    assert by_step == by_scan == want
    assert want[0] == 649 and at + 549 in want
    assert matcher_state(scanned) == matcher_state(stepped)


def test_a_rejected_first_arrival_of_a_block_still_opens_the_block():
    # The symbol at a block's first index is rejected; the block's offset
    # and power must be set all the same.  Going on through step, through
    # scan, and from a copy made mid-block after the error gives the same
    # matches and state, and the oracle's matches, with a fresh symbol in
    # the rejected place, in every window but the one ending there.
    inst = make_instance("planted", 2048, 6000, 4, seed=2)
    bad = 100 * _BLOCK
    text = list(inst.text)
    text[3300 : 3300 + 2048] = [(x + 1) % 4 for x in inst.pattern]
    text[bad] = 4
    fresh = text[:bad] + [5] + text[bad + 1 :]
    want = [s + 2047 for s in naive_all_matches(inst.pattern, fresh) if s + 2047 != bad]
    assert want[0] < bad < want[-1]
    stepped, scanned, head = (StreamMatcher(inst.pattern, 4, seed=3) for _ in range(3))
    assert stepped.mode == "rand"
    by_step = feed_past_errors(stepped, text, 1)
    by_scan = feed_past_errors(scanned, text, 1000)
    msg = f"symbol 4 at stream index {bad} outside alphabet [0, 4)"
    assert by_step == by_scan == (want, [(AlphabetError, bad, msg)])
    ends, errors = feed_past_errors(head, text[: bad + 10], 1000)
    # The rejected arrival enters as a first occurrence: its history
    # entry adds no term, and it reads as value 0 in the prefix
    # fingerprints from it on.
    values = pred_string(fresh)
    ref = FieldContext(head.p, head.rtab[1])
    for j in range(bad - 3, bad + 10):
        fp = fp_of_sequence(ref, values[: j + 1])
        assert prefix_fingerprint(head, j) == (fp, pow(ref.r, j, ref.p)), j
    copied = copy.deepcopy(head)
    copied.scan(text[bad + 10 :], ends)
    assert (ends, errors) == by_step
    assert matcher_state(copied) == matcher_state(stepped) == matcher_state(scanned)


@pytest.mark.parametrize("chunk", [1, 1000], ids=["step", "scan"])
@pytest.mark.parametrize("mode", ["rand", "det"])
@pytest.mark.parametrize("k", [5, 1500, 2038, 2047])
def test_a_rejected_symbol_reads_as_a_fresh_one(k, mode, chunk):
    # The pattern's only 3 sits at offset k: in phase A's base (5), on a
    # middle ladder level (1500), in phase C's tail (2038), or last
    # (2047).  A relabelled plant at 4000 has 9, outside the alphabet, in
    # its place.  Going on after the AlphabetError, both engines answer
    # every window as the oracle does with a fresh symbol there, but the
    # one ending at the rejected index, whose verdict is dropped.
    m = 2048
    rng = random.Random(1)
    pattern = [rng.randrange(3) for _ in range(m)]
    pattern[k] = 3
    text = [rng.randrange(3) for _ in range(7000)]
    for at in (1000, 4000):
        perm = rng.sample(range(4), 4)
        text[at : at + m] = [perm[x] for x in pattern]
    bad = 4000 + k
    text[bad] = 9
    want = [s + m - 1 for s in naive_all_matches(pattern, text)]
    assert want == [3047, 6047]
    sm = StreamMatcher(pattern, 4, mode=mode, seed=3)
    if mode == "rand":
        assert 5 < sm.m0 <= 1500 < m - sm.H <= 2038
    ends, errors = feed_past_errors(sm, text, chunk)
    assert ends == [e for e in want if e != bad]
    assert [e[:2] for e in errors] == [(AlphabetError, bad)]
    assert sm.i == len(text) - 1


@pytest.mark.parametrize("chunk", [1, 1000], ids=["step", "scan"])
@pytest.mark.parametrize("mode", ["rand", "det"])
@pytest.mark.parametrize("bad", [1.5, "x"])
def test_a_non_integer_symbol_is_rejected_like_one_outside_the_alphabet(
    bad, mode, chunk
):
    # A float passes the range check and fails the table index, a string
    # fails the range check.  Either is rejected as 9 is: an AlphabetError
    # naming its index, the arrival taken as a fresh symbol, so the later
    # match indices and the state are those after a rejected 9.
    inst = make_instance("planted", 2048, 6000, 4, seed=2)
    text = list(inst.text)
    text[3300 : 3300 + 2048] = [(x + 1) % 4 for x in inst.pattern]
    at = 3000
    runs = []
    for sym in (9, bad):
        text[at] = sym
        sm = StreamMatcher(inst.pattern, 4, mode=mode, seed=3)
        assert sm.mode == mode
        ends, errors = feed_past_errors(sm, text, chunk)
        assert [e[:2] for e in errors] == [(AlphabetError, at)]
        assert f"symbol {sym} at stream index {at} " in errors[0][2]
        state = matcher_state(sm) if mode == "rand" else list(sm.det.tracker.table)
        runs.append((ends, sm.i, state))
    assert runs[1] == runs[0]
    ends, last, _ = runs[0]
    assert ends and ends[-1] > at and last == len(text) - 1


@pytest.mark.parametrize("chunk", [1, 1000], ids=["step", "scan"])
def test_a_rejected_symbol_leaves_the_table_as_it_was(chunk):
    # The rejected arrival reaches the engine, the table does not.
    inst = make_instance("planted", 2048, 6000, 4, seed=2)
    text = list(inst.text)
    text[3001] = -1
    sm = StreamMatcher(inst.pattern, 4, seed=3)
    assert sm.mode == "rand"
    sm.scan(text[:3001])
    table = list(sm.tracker.table)
    with pytest.raises(AlphabetError):
        if chunk == 1:
            sm.step(text[3001])
        else:
            sm.scan(text[3001 : 3001 + chunk])
    assert (sm.i, sm.tracker.table) == (3001, table)


def test_feed_equals_scan_and_retires_the_table():
    # Fed its predecessor distances from elsewhere, as lists or any other
    # iterable, a rand-routed matcher answers and moves as one that scans
    # the symbols; it drops the front end's table, which no longer
    # describes the stream, and refuses step and scan after.
    inst = make_instance("planted", 3000, 9000, 4, seed=5)
    text = inst.text
    tracker = LastOccurrence(4)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    scanned = StreamMatcher(inst.pattern, 4, seed=12)
    fed = StreamMatcher(inst.pattern, 4, seed=12)
    assert fed.mode == "rand"
    got = []
    for k in range(0, len(text), 1000):
        chunk = preds[k : k + 1000]
        assert fed.feed(chunk if k % 2000 else iter(chunk), got) is got
        scanned.scan(text[k : k + 1000])
        assert {**matcher_state(scanned), "table": None} == matcher_state(fed), k
    assert [e - 2999 for e in got] == naive_all_matches(inst.pattern, text)
    assert got
    with pytest.raises(UsageError):
        fed.step(text[0])
    with pytest.raises(UsageError):
        fed.scan(text[:5])
    assert matcher_state(fed) == {**matcher_state(scanned), "table": None}


@pytest.mark.parametrize("v", [-5, 0])
@pytest.mark.parametrize("chunk", [7, 2000])
def test_a_fed_distance_below_one_is_a_first_occurrence(v, chunk):
    # Both engines read a distance v at window offset j as `v if 0 < v <=
    # j else 0`.  A fed negative distance inside a plant's window once
    # entered the randomized engine's block sums, and it missed the match
    # that the deterministic engine and the oracle report.
    rng = random.Random(5)
    pattern = [rng.randrange(3) for _ in range(400)] + [3]
    pattern += [rng.randrange(4) for _ in range(199)]
    text = [rng.randrange(4) for _ in range(700)] + pattern
    text += [rng.randrange(4) for _ in range(700)]
    tracker = LastOccurrence(4)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    preds[1100] = v
    want = [s + 599 for s in naive_all_matches(pattern, text)]
    for mode in ("det", "rand"):
        sm = StreamMatcher(pattern, 4, mode=mode)
        got = []
        for k in range(0, len(preds), chunk):
            sm.feed(preds[k : k + chunk], got)
        assert got == want == [1299], mode


def test_a_fed_distance_above_never_is_a_first_occurrence():
    # A first occurrence fed as a distance too large for an int64, in
    # chunks whose stretches are read into int64 arrays: the answers and
    # the whole state are those of the same stream fed with NEVER.
    inst = make_instance("planted", 3000, 9000, 4, seed=5)
    tracker = LastOccurrence(4)
    preds = [tracker.step(sym, j) for j, sym in enumerate(inst.text)]
    huge = [2**70 if v == NEVER else v for v in preds]
    never, fed = (StreamMatcher(inst.pattern, 4, seed=12) for _ in range(2))
    for k in range(0, len(preds), 2000):
        assert fed.feed(huge[k : k + 2000]) == never.feed(preds[k : k + 2000])
        assert matcher_state(fed) == matcher_state(never)
    assert huge != preds


@pytest.mark.parametrize("kind", ["periodic", "planted"])
@pytest.mark.parametrize("chunk", [16, 4096])
def test_numpy_distances_are_fed_as_ints(kind, chunk):
    # Distances fed as numpy int64s, in an array or a list, answer as the
    # oracle on both engines.  The randomized engine once took them into
    # its block sums as numpy ints, whose int64 products overflowed: it
    # missed matches, every one on the periodic stream, and a long stretch
    # of the planted one raised OverflowError.  A float is refused before
    # any arrival runs.
    inst = make_instance(kind, 3000, 9000, 4, seed=0)
    tracker = LastOccurrence(4)
    preds = np.array([tracker.step(sym, j) for j, sym in enumerate(inst.text)], np.int64)
    want = [s + 2999 for s in naive_all_matches(inst.pattern, inst.text)]
    for mode in ("det", "rand"):
        for fed in (preds, list(preds)):
            sm = StreamMatcher(inst.pattern, 4, seed=12, mode=mode)
            got = []
            for k in range(0, len(fed), chunk):
                sm.feed(fed[k : k + chunk], got)
            assert got == want != [], mode
    sm = StreamMatcher(inst.pattern, 4, seed=12, mode="rand")
    with pytest.raises(TypeError):
        sm.feed([NEVER, 2.0])
    assert sm.i == -1


CHUNK_KINDS = {
    "int64": lambda c: np.array(c, np.int64),
    "array": lambda c: array("q", c),
    "memoryview": lambda c: memoryview(array("q", c)),
    "bytearray": bytearray,
    "range": lambda c: c,
    "tuple": tuple,
    "generator": lambda c: (x for x in c),
}


@pytest.mark.parametrize("mode", ["rand", "det"])
@pytest.mark.parametrize("kind", list(CHUNK_KINDS))
def test_a_chunk_in_any_container_scans_as_a_list(kind, mode):
    # `bytes` of an int64 array, an array('q') or a memoryview of one
    # would read 8 bytes per symbol: each container is read by its values,
    # and a matcher scanning it answers and moves as one scanning lists.
    # The text is made of ranges, so that each can be a chunk of its own;
    # the other containers take runs of them, long stretches included.
    rng = random.Random(3)
    segs = []
    for _ in range(6000):
        a = rng.randrange(4)
        segs.append(range(a, rng.randrange(a + 1, 5)))
    plant = segs[100:1100]
    for at in (1500, 3000, 4500):
        segs[at:at] = plant
    pattern = [x for seg in plant for x in seg]
    text = [x for seg in segs for x in seg]
    if kind == "range":
        chunks = segs
    else:
        chunks, k = [], 0
        while k < len(segs):
            n = rng.randrange(1, 600)
            chunks.append([x for seg in segs[k : k + n] for x in seg])
            k += n
    as_list, as_kind = (StreamMatcher(pattern, 4, mode=mode, seed=7) for _ in range(2))
    assert as_kind.mode == mode

    def state(sm):
        if mode == "rand":
            return matcher_state(sm)
        return {"i": sm.i, "table": list(sm.det.tracker.table), "core": core_state(sm.det.core)}

    ends = []
    for j, chunk in enumerate(chunks):
        got = as_kind.scan(CHUNK_KINDS[kind](chunk))
        assert got == as_list.scan(list(chunk))
        ends += got
        if j % 97 == 0:
            assert state(as_kind) == state(as_list), j
    assert state(as_kind) == state(as_list)
    m = len(pattern)
    assert [e - m + 1 for e in ends] == naive_all_matches(pattern, text)
    assert len(ends) >= 4 and as_kind.i == len(text) - 1


def test_a_det_routed_matcher_feeds_its_det_engine():
    sm = StreamMatcher([0, 1] * 300, 2)
    assert sm.mode == "det"
    assert sm.feed([NEVER, NEVER, 2, 2]) == []
    assert (sm.i, sm.det.tracker) == (3, None)
    with pytest.raises(UsageError):
        sm.step(0)
    with pytest.raises(UsageError):
        sm.scan([0])


def test_history_entries_stay_below_the_block_bound():
    # A history entry is a block's unreduced sum of values below m <= p
    # times powers below p, so below _BLOCK * m * p.  With m = 6000 and
    # p = 8191, symbols 3 .. 31 first occur at 337 .. 365 and recur m - 1
    # arrivals later, at the first 29 arrivals of one block, each with the
    # largest distance that still enters a fingerprint.  The largest entry
    # lies far above p: the sums really are left unreduced, and still stay
    # below the bound.
    p = 8191
    m = 6000
    rng = random.Random(8)
    pattern = [rng.randrange(3) for _ in range(m)]
    text = [rng.randrange(3) for _ in range(20000)]
    text[12000:18000] = [(x + 1) % 3 for x in pattern]
    for a in (337, 337 + m - 1):
        text[a : a + 29] = range(3, 32)
    assert (337 + m - 1) % _BLOCK == 0
    sm = StreamMatcher(pattern, 32, mode="rand", prime_bits=13, seed=4)
    assert sm.p == p
    top = 0
    ends = []
    for i, sym in enumerate(text):
        if sm.step(sym):
            ends.append(i)
        top = max(top, sm.hist_fp[i % sm.H])
    assert ends == [s + m - 1 for s in naive_all_matches(pattern, text)] == [17999]
    assert 8 * m * p < top < _BLOCK * m * p


def test_copies_made_mid_stream_go_on_like_the_original():
    # deepcopy and pickle leave out the running phase generator; each
    # copy builds its own from the copied state, and computes each level's
    # next acting turn again from lv_ip and its queue's head.  The periodic
    # cut falls while four levels idle with matches queued, before their
    # heads' deadlines; the two planted cuts while one level, or two, idle
    # so and nothing else is in flight, so only the rebuilt deadline wakes
    # phase B; the block-tiled cut while level 1 checks and level 2 idles
    # with a match queued, so the rebuilt next turn of a checking level
    # keeps phase B running to finish that check; the long_gap cut on a
    # quiet arrival, with every level idle and nothing in flight.
    periodic = make_instance("periodic", 2500, 10000, 4, seed=2)
    planted = make_instance("planted", 3000, 9000, 4, seed=5)
    longer = make_instance("planted", 6000, 18000, 4, seed=5)
    long_gap = make_instance("long_gap", 2100, 9000, 4, seed=8)
    for kind, pattern, text, cut, checking, waiting in [
        ("periodic", periodic.pattern, periodic.text, 5000, 0, 4),
        ("planted", planted.pattern, planted.text, 7000, 0, 1),
        ("planted", longer.pattern, longer.text, 11000, 0, 2),
        ("blocks", *BLOCKS, 1200, 1, 1),
        ("long_gap", long_gap.pattern, long_gap.text, 5000, 0, 0),
    ]:
        sm = StreamMatcher(pattern, 4, seed=12)
        assert sm.mode == "rand"
        sm.scan(text[:cut])
        levels = range(1, sm.s + 1)
        assert sum(sm.lv_ip[ell] >= 0 for ell in levels) == checking, kind
        idle_queued = [ell for ell in levels if sm.lv_ip[ell] < 0 and sm.mq[ell - 1].segs]
        assert len(idle_queued) == waiting, kind
        in_flight = (bool(sm.mq_words), sm.bcur, len(sm.bbuf), sm.c_ip)
        assert in_flight == (bool(waiting), None, 0, -1), kind
        dues = [sm.mq[ell - 1].segs[0][0] + sm.mlen[ell] + sm.delta for ell in idle_queued]
        assert all(sm.i < due for due in dues), kind
        copies = [copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))]
        rest = text[cut:]
        for matcher in [sm] + copies:
            matcher.debug_checks = []
        want = sm.scan(rest)
        m = len(pattern)
        ends = [s + m - 1 for s in naive_all_matches(pattern, text)]
        assert want == [e for e in ends if e >= cut], kind
        assert bool(want) == bool(waiting or checking), kind
        for other in copies:
            assert other.scan(rest) == want, kind
            assert other.debug_checks == sm.debug_checks, kind
            assert matcher_state(other) == matcher_state(sm), kind


def test_copies_taken_between_sends_go_on_like_the_original():
    # A deep copy and a pickle of a randomized matcher whose phase
    # generator has run since its last write-back carry its state: a
    # `scan` and then a `step`, with no read between, leave the state
    # record behind the generator, and taking the copies writes it back.
    # The cut falls while level 2 checks and level 1 idles with a match
    # queued.  The copies and the original, whose generator keeps
    # running, answer the rest alike and end in the same state.
    pattern, text = BLOCKS
    m = len(pattern)
    cut = 1200
    sm = StreamMatcher(pattern, 4, seed=12)
    assert sm.mode == "rand"
    sm.scan(text[: cut - 1])
    sm.step(text[cut - 1])
    assert sm.state is None and sm.suba.state is None
    run = sm.run
    copies = [copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))]
    assert sm.run is run and sm.state is not None
    for c in copies:
        assert c.run is None and matcher_state(c) == matcher_state(sm)
    rest = text[cut:]
    want = [s + m - 1 for s in naive_all_matches(pattern, text) if s + m - 1 >= cut]
    assert want
    for c in (sm, *copies):
        got = c.scan(rest[:100])
        got += [cut + 100 + j for j, sym in enumerate(rest[100:300]) if c.step(sym)]
        got += c.scan(rest[300:])
        assert got == want
    for c in copies:
        assert matcher_state(c) == matcher_state(sm)


def take_turns(sm, text, start):
    """Step text[start:] through `sm` and check that whatever has work
    acts on its turn: the level whose turn an arrival is, when it checks
    (its scan advances) or idles past its queue head's deadline (it pops
    the head), and phase C, when its tail check's next position has
    arrived or a match waits while no check is open.  Returns the
    arrivals where each acted."""
    acted = []
    s = sm.s
    for j in range(start, len(text)):
        ell = 1 + j % s
        segs = sm.mq[ell - 1].segs
        head = segs[0][0] if segs else None
        checking = sm.lv_ip[ell] >= 0
        work = checking or (head is not None and j > head + sm.mlen[ell] + sm.delta)
        cur = sm.lv_cur[ell]
        c_ip, c_k = sm.c_ip, sm.c_k
        tail = (c_ip >= 0 and c_ip + sm.m - sm.H + c_k <= j) or (c_ip < 0 and sm.mq[s].segs)
        sm.step(text[j])
        if work:
            if checking:
                assert sm.lv_cur[ell] > cur, (j, ell)
            else:
                assert not segs or segs[0][0] != head, (j, ell)
            acted.append(j)
        if tail:
            assert (sm.c_ip, sm.c_k) != (c_ip, c_k), j
            acted.append(j)
    return acted


def test_whatever_has_work_acts_on_its_turn():
    # Phases B and C are skipped on an arrival where nothing is due, so
    # a level that is owed its turn, or a tail check owed a comparison,
    # must still get it, on the periodic, mismatched, planted and
    # block-tiled streams.  On the binary periodic one, level 2 splits at
    # 484, the arrival that pushes a base-prefix match, which level 1
    # splits at 570, its first turn past the match's deadline, 568.
    # So must a copy whose generator computes the schedule again: one cut
    # right after a push gives idle level 1 a new queue head, off level
    # 1's turn, and one while a level idles with two matches or more
    # queued.
    periodic = make_instance("periodic", 2500, 10000, 4, seed=2)
    planted = make_instance("planted", 3000, 9000, 4, seed=5)
    binary = periodic_instance(641, 4 * 641, 2, 438433, block=211)
    streams = [
        (periodic.pattern, periodic.text, 4),
        (*tail_mismatches(2500, 10000, 2), 4),
        (planted.pattern, planted.text, 4),
        (*BLOCKS, 4),
        (binary.pattern, binary.text, 2),
    ]
    for pattern, text, sigma in streams:
        sm = StreamMatcher(pattern, sigma, seed=12)
        assert sm.mode == "rand"
        assert take_turns(sm, text, 0)
    sm = StreamMatcher(periodic.pattern, 4, seed=12)
    text = periodic.text
    cuts = []
    for j, sym in enumerate(text):
        fresh = not sm.mq[0].segs
        sm.step(sym)
        new_head = fresh and sm.lv_ip[1] < 0 and sm.mq[0].segs
        idle_queued = any(
            sm.lv_ip[ell] < 0 and len(sm.mq[ell - 1]) >= 2 for ell in range(1, sm.s + 1)
        )
        if (new_head and j % sm.s) or (idle_queued and len(cuts) == 1):
            cuts.append(j + 1)
        if len(cuts) == 2:
            break
    assert len(cuts) == 2
    for cut in cuts:
        sm = StreamMatcher(periodic.pattern, 4, seed=12)
        sm.scan(text[:cut])
        take_turns(copy.deepcopy(sm), text, cut)


def test_a_level_acts_at_its_first_turn_after_what_it_waits_for():
    # `_turn` against a search, arrival by arrival, for the first turn
    # of level ell (1 + t % s == ell) after i that the level acts at:
    # any while it checks, only one past head + wait while it idles with
    # a match queued, none on an empty queue.  i = -1 is a stream's start.
    def search(ell, i, s, past):
        t = i + 1
        while 1 + t % s != ell or t <= past:
            t += 1
        return t

    for s in range(1, 7):
        for ell in range(1, s + 1):
            for i in range(-1, 3 * s + 4):
                want = search(ell, i, s, i)
                assert stream_matcher._turn(ell, i, 0, [], 5, s) == want
                assert stream_matcher._turn(ell, i, 7, [[0, 1]], 5, s) == want
                assert stream_matcher._turn(ell, i, -1, [], 5, s) == NEVER
                for head in range(max(i - 8, 0), i + 4):
                    for wait in range(0, 2 * s + 2):
                        queue = [[head, 1], [head + 9, 1]]
                        got = stream_matcher._turn(ell, i, -1, queue, wait, s)
                        assert got == search(ell, i, s, head + wait), (s, ell, i, head, wait)


def test_a_push_behind_a_due_head_leaves_the_level_its_turn():
    # Base-prefix matches lie 166 apart here, so phase A can push a match
    # behind idle level 1's queue head at the very arrival the head is
    # due.  Only a push that gives an idle level a new head moves its
    # turn, so level 1 still pops the head there.
    inst = periodic_instance(1000, 5000, 4, 0, block=166)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    assert sm.mode == "rand"
    m0, s = sm.m0, sm.s
    pushes = {x + m0 - 1 for x in naive_all_matches(inst.pattern[:m0], inst.text)}
    due = []
    for j, sym in enumerate(inst.text):
        segs = sm.mq[0].segs
        if j in pushes and j % s == 0 and sm.lv_ip[1] < 0 and segs:
            if j > segs[0][0] + sm.mlen[1] + sm.delta:
                due.append(j)
        sm.step(sym)
    assert len(due) >= 5
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    assert set(due) <= set(take_turns(sm, inst.text, 0))


def test_two_levels_scanning_with_the_queues_empty():
    # Two level checks run at once while the match queues, the distance
    # buffer and the tail check are empty: on a block tiling whose
    # recurrences (399) fill every zeroing ring, at arrival 1430.  The
    # first to complete must leave phase B running for the other.
    pattern, text = block_tiling(4, 399, 600, 1800, seed=13)
    want = [s + 599 for s in naive_all_matches(pattern, text)]
    assert want
    stepped = StreamMatcher(pattern, 4, seed=1)
    scanned = StreamMatcher(pattern, 4, seed=1)
    assert stepped.mode == "rand"
    stepped.debug_checks = []
    scanned.debug_checks = []
    ends = []
    reached = []
    for k, sym in enumerate(text):
        if stepped.step(sym):
            ends.append(k)
        if (
            sum(ip >= 0 for ip in stepped.lv_ip) >= 2
            and stepped.mq_words == 0
            and not stepped.bbuf
            and stepped.bcur is None
            and stepped.c_ip < 0
        ):
            reached.append(k)
    assert reached == [1430]
    assert ends == want
    assert scanned.scan(text) == want
    assert scanned.debug_checks == stepped.debug_checks


def split_turns(sm, text):
    """Step `text` through `sm`; for each split, the entries its ring held
    and how far past the ring's front the split turn scanned, and whether
    the check completed there, and for each later turn of a check, how
    far it scanned."""
    s = sm.s
    sm.debug_checks = []
    splits, later = [], []
    for j, sym in enumerate(text):
        ell = 1 + j % s
        ip = sm.lv_ip[ell]
        segs = sm.mq[ell - 1].segs
        split = ip < 0 and bool(segs) and j > segs[0][0] + sm.mlen[ell] + sm.delta
        cur = sm.lv_cur[ell]
        checks = len(sm.debug_checks)
        sm.step(sym)
        front = max(0, sm.dq_next[ell] - sm.dq_cap)
        if split:
            done = len(sm.debug_checks) > checks
            splits.append((sm.lv_end[ell] - front, sm.lv_cur[ell] - front, done))
        elif ip >= 0:
            later.append(sm.lv_cur[ell] - max(cur, front))
    return splits, later


def test_a_split_turn_scans_what_bphi_cap_leaves():
    # A split turn pops (2 ops) and splits (5) before it scans, so it
    # scans at most _SCAN_BATCH - 7 entries: with the pass's 1 and the
    # push's 2 it charges 16 ops, as a later turn does with 1 + 13 + 2.
    # OP_BUDGET alone would not catch a split that scans the full batch
    # (23 ops, under 42).  On BLOCKS a split finds 0 to 48 ring entries:
    # some splits scan exactly 6 past the ring's front, some later turns
    # exactly 13, and 4 of the 37 checks complete at their split.  On the
    # periodic stream every ring is empty, and each of the 116 checks
    # completes in its split arrival.
    pattern, text = BLOCKS
    splits, later = split_turns(StreamMatcher(pattern, 4, seed=1), text)
    found = [held for held, _, _ in splits]
    assert (min(found), max(found)) == (0, 48)
    assert max(scanned for _, scanned, _ in splits) == _SCAN_BATCH - 7
    assert max(later) == _SCAN_BATCH
    assert (len(splits), sum(done for _, _, done in splits)) == (37, 4)
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    splits, later = split_turns(sm, inst.text)
    assert len(splits) == len(sm.debug_checks) == 116
    assert all(done for _, _, done in splits) and not later


def test_copies_of_a_det_routed_matcher_go_on_like_the_original():
    # A det-routed matcher copies its DetMatcher, and no randomized state.
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    sm = StreamMatcher(inst.pattern, 4, mode="det")
    sm.scan(inst.text[:5000])
    copies = [copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))]
    rest = inst.text[5000:]
    want = sm.scan(rest)
    assert want
    for other in copies:
        assert other.mode == "det" and other.det is not sm.det
        assert other.scan(rest) == want
        assert other.i == sm.i == len(inst.text) - 1


def test_debug_checks_set_after_the_first_scan():
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    stepped = StreamMatcher(inst.pattern, 4, seed=12)
    scanned = StreamMatcher(inst.pattern, 4, seed=12)
    head, rest = inst.text[:3000], inst.text[3000:]
    for sym in head:
        stepped.step(sym)
    scanned.scan(head)
    stepped.debug_checks = []
    scanned.debug_checks = []
    for sym in rest:
        stepped.step(sym)
    scanned.scan(rest)
    assert len(scanned.debug_checks) > 10
    assert scanned.debug_checks == stepped.debug_checks


def test_scan_keeps_matches_found_before_an_error():
    inst = make_instance("planted", 2048, 6000, 4, seed=2)
    end = naive_all_matches(inst.pattern, inst.text)[0] + 2047
    text = list(inst.text)
    text[end + 5] = 4
    sm = StreamMatcher(inst.pattern, 4, seed=3)
    assert sm.mode == "rand"
    sm.scan(text[: end - 10])
    ends = []
    with pytest.raises(AlphabetError):
        sm.scan(text[end - 10 : end + 20], ends)
    assert ends == [end]


# The runtime checks of the phases, made to fire.  Each guards a bound
# that the analysis guarantees, so no valid stream breaks it: a test
# lowers the bound (a module constant, which the phases read on every
# arrival, or an attribute of a copy, whose phase generator reads it when
# it starts) and checks that the violation is raised at the arrival where
# the bound is first exceeded, and that the matches reported before that
# arrival are kept.
PERIODIC = make_instance("periodic", 4096, 20000, 4, seed=3)


def violation(inst, sigma, seed, cut, patch):
    """Scan `inst`'s text up to `cut`, apply `patch` to a copy of the
    matcher, and scan the rest with it; returns the violation's message
    and its arrival."""
    sm = StreamMatcher(inst.pattern, sigma, seed=seed)
    assert sm.mode == "rand"
    ends = sm.scan(inst.text[:cut])
    sm = copy.copy(sm)
    patch(sm)
    with pytest.raises(StructuralViolation) as err:
        sm.scan(inst.text[cut:], ends)
    m = len(inst.pattern)
    want = [s + m - 1 for s in naive_all_matches(inst.pattern, inst.text)]
    assert ends == [e for e in want if e < sm.i]
    return str(err.value), sm.i


def reference_at(inst, sigma, seed, i):
    """An unpatched matcher that has taken arrivals 0 .. i - 1."""
    sm = StreamMatcher(inst.pattern, sigma, seed=seed)
    sm.scan(inst.text[:i])
    return sm


def test_an_arrival_over_the_op_budget_raises(monkeypatch):
    # A near miss of phase A's pattern over the periodic stream's first m0
    # arrivals makes phase A's core fall behind; catching up at arrival 78,
    # it takes three symbols, 11 ops, the first arrival over 9.
    ref = StreamMatcher(PERIODIC.pattern, 4, seed=2)
    m0 = ref.m0
    text = list(PERIODIC.text)
    text[:m0] = near_misses(PERIODIC.pattern, text[:m0], range(4), 3, 1, m0 - 1)
    for sym in text:
        consumed = ref.suba.consumed
        ref.step(sym)
        if ref.ops_last > 9:
            break
    assert (ref.i, ref.ops_last, ref.suba.consumed - consumed) == (78, 11, 3)
    monkeypatch.setattr(stream_matcher, "OP_BUDGET", 9)
    inst = Instance(PERIODIC.pattern, text, 4, "periodic", PERIODIC.seed)
    msg, i = violation(inst, 4, 2, 0, lambda sm: None)
    assert (msg, i) == ("arrival 78 used 11 ops, budget 9", 78)


def test_a_tail_check_behind_schedule_raises(monkeypatch):
    # With no comparison allowed, the tail check of the second match is
    # still open at the arrival where its window closes, 4607.
    def patch(sm):
        monkeypatch.setattr(stream_matcher, "_C_BUDGET", 0)

    msg, i = violation(PERIODIC, 4, 2, 4096, patch)
    assert msg == "tail check behind schedule"
    assert i == 4607


def test_an_expired_history_raises_at_the_split():
    # A quarter of the history holds delta entries; a level splits its
    # fingerprint more than delta arrivals after its window's end.
    def patch(sm):
        sm.H //= 4

    msg, i = violation(PERIODIC, 4, 2, 4096, patch)
    ref = reference_at(PERIODIC, 4, 2, i)
    ell = 1 + i % ref.s
    assert msg == f"fingerprint history expired for level {ell}"
    # Unpatched, the level idles past its queue head's deadline and pops
    # the head, splits and, with an empty ring, completes the check.
    head = ref.mq[ell - 1].segs[0][0]
    assert ref.lv_ip[ell] < 0 and i > head + ref.mlen[ell] + ref.delta
    ref.debug_checks = []
    ref.step(PERIODIC.text[i])
    assert [check[:2] for check in ref.debug_checks] == [(ell, head)]


def test_a_late_level_report_raises():
    # The first level check to pass after the first match completes at
    # arrival `done`; a copy made one arrival earlier with delta = 0 finds
    # that arrival past the check's reporting deadline.
    ref = reference_at(PERIODIC, 4, 2, 4096)
    ref.debug_checks = checks = []
    while not any(acc == ref.level_fp[ell] for ell, _, acc in checks):
        ref.step(PERIODIC.text[ref.i + 1])
    done = ref.i
    (ell,) = {ell for ell, _, acc in checks if acc == ref.level_fp[ell]}

    def patch(sm):
        sm.delta = 0

    msg, i = violation(PERIODIC, 4, 2, done, patch)
    assert (msg, i) == (f"level {ell} missed its reporting deadline", done)


def tail_pop_after_the_first_match():
    """A matcher that has just taken the final-level candidate after the
    first match into its tail check."""
    ref = reference_at(PERIODIC, 4, 2, 4096)
    while ref.c_ip < 0:
        ref.step(PERIODIC.text[ref.i + 1])
    return ref


def test_a_tail_pop_past_the_history_raises():
    # Phase C pops a final-level candidate `lag` arrivals past its last
    # level; a history of `lag` entries no longer holds the tail's first
    # position.  Where the level's check completes at its split, the
    # split's own bound on the history, one stricter, raises first.  On
    # BLOCKS the final level's check of 318 splits at 1199 and completes at
    # its next turn, 1201, where phase C pops the candidate 43 arrivals
    # past its last level.
    inst = Instance(*BLOCKS, 4, "blocks", 13)
    ref = reference_at(inst, 4, 1, 1201)
    s = ref.s
    assert ref.lv_ip[s] == 318 and ref.c_ip < 0
    ref.step(inst.text[1201])
    lag = ref.i - ref.c_ip - ref.mlen[s]
    assert (ref.c_ip, lag) == (318, 43)

    def patch(sm):
        sm.H = lag

    assert violation(inst, 4, 1, 1201, patch) == ("predecessor history expired", 1201)


def test_a_tail_check_completed_early_raises():
    # A history cut to the comparisons the tail check has made so far
    # counts the check as complete before its window closes.
    ref = tail_pop_after_the_first_match()
    ref.scan(PERIODIC.text[ref.i + 1 : ref.i + 31])
    assert 0 < ref.c_k < ref.H
    cut = ref.i + 1

    def patch(sm):
        sm.H = ref.c_k

    msg, i = violation(PERIODIC, 4, 2, cut, patch)
    assert (msg, i) == ("tail check completed off schedule", cut)


def test_a_full_distance_buffer_raises():
    # Symbols 1 .. sigma - 1 recur in bursts inside (m0, m) and queue up
    # in the distance buffer; with its bound one below the peak they
    # reach, the arrival that reaches the peak raises.
    inst = gap_instance(2100, 3 * 2100, 4, seed=8, gap=2100 - 11)
    ref = StreamMatcher(inst.pattern, 4, seed=3)
    ref.scan(inst.text)
    peak = ref.b_peak
    assert peak > 1

    def patch(sm):
        sm.sigma = peak - 1

    msg, i = violation(inst, 4, 3, 0, patch)
    assert msg == f"distance buffer exceeded {peak - 1} entries"
    ref = reference_at(inst, 4, 3, i)
    assert ref.b_peak == peak - 1
    ref.step(inst.text[i])
    assert ref.b_peak == peak


def test_a_violation_mid_chunk_stops_where_a_stepped_run_stops():
    # The distance buffer's bound, one below the peak this stream reaches,
    # breaks part-way through a scanned chunk.  The scanned and the
    # stepped matcher raise at the same arrival with the same matches,
    # and then both refuse every call.
    inst = gap_instance(2100, 3 * 2100, 4, seed=8, gap=2100 - 11)
    text = inst.text
    ref = StreamMatcher(inst.pattern, 4, seed=3)
    ref.scan(text)
    scanned, stepped = (StreamMatcher(inst.pattern, 4, seed=3) for _ in range(2))
    scanned.sigma = stepped.sigma = ref.b_peak - 1
    by_scan, by_step = [], []
    with pytest.raises(StructuralViolation, match="^distance buffer exceeded"):
        scanned.scan(text, by_scan)
    bad = scanned.i
    with pytest.raises(StructuralViolation, match="^distance buffer exceeded"):
        for j, sym in enumerate(text):
            if stepped.step(sym):
                by_step.append(j)
    assert stepped.i == bad < len(text) - 1
    m = len(inst.pattern)
    want = [s + m - 1 for s in naive_all_matches(inst.pattern, text)]
    assert by_scan == by_step == [e for e in want if e < bad]
    for sm in (scanned, stepped):
        for call in (sm.step, sm.scan, sm.feed):
            arg = text[bad + 1] if call == sm.step else text[bad + 1 :]
            with pytest.raises(UsageError, match="distance buffer exceeded"):
                call(arg)
        assert sm.i == bad


def test_a_matcher_that_ran_is_freed_without_the_cyclic_collector():
    # Every engine's generator holds its engine only weakly: the rand
    # matcher, phase A's core and a standalone matcher's core go as soon
    # as their last reference does.
    inst = make_instance("planted", 3000, 9000, 4, seed=5)
    gc.disable()
    try:
        sm = StreamMatcher(inst.pattern, 4, seed=12)
        assert sm.mode == "rand"
        sm.scan(inst.text[:5000])
        sm.step(inst.text[5000])
        dm = DetMatcher(build_profile(inst.pattern, 4))
        dm.step(inst.text[0])
        dm.scan(inst.text[1:5000])
        assert None not in (sm.run, sm.suba.run, dm.core.run)
        refs = [weakref.ref(sm), weakref.ref(sm.suba), weakref.ref(dm.core)]
        del sm, dm
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_an_expired_history_ends_the_stream():
    # A copy with a quarter of the history raises at arrival 4225, where
    # level 2's split finds its entry gone.  Going on from there, even
    # with the whole history back, would run on a level that lost its
    # candidate, and miss the match that ends at 7679.  So the stream
    # ends: the matches before the error are the oracle's, and every
    # later call is refused.
    want = [s + 4095 for s in naive_all_matches(PERIODIC.pattern, PERIODIC.text)]
    assert 7679 in want
    sm = StreamMatcher(PERIODIC.pattern, 4, seed=2)
    ends = sm.scan(PERIODIC.text[:4096])
    sm = copy.copy(sm)
    sm.H //= 4
    with pytest.raises(
        StructuralViolation, match="^fingerprint history expired for level 2$"
    ):
        sm.scan(PERIODIC.text[4096:], ends)
    assert sm.i == 4225
    assert ends == [e for e in want if e < 4225] != []
    sm.H *= 4
    with pytest.raises(UsageError, match="fingerprint history expired for level 2"):
        sm.scan(PERIODIC.text[4226:], ends)
    assert sm.i == 4225 and ends == [e for e in want if e < 4225]


def stopped_matcher(where):
    """A matcher that an engine error stops at arrival `at`, with the
    matches it reported before, the oracle's, and the error's message.

    The error is a deferral overflow inside a quiet stretch (on the
    periodic stream with near misses), an expired history outside one
    (phase B, in a copy whose history is cut after 4096 arrivals), a
    deferral overflow in a det-routed matcher's core (on a binary planted
    stream with near misses), and the same in a det-routed matcher fed by
    an `AlphabetFilter`.
    """
    out = []
    start = 0
    if where in ("stretch", "outside"):
        if where == "stretch":
            pattern, text = periodic_misses()
            sm = StreamMatcher(pattern, 4, seed=12)
            sm.suba.pend_cap = 5
            at, msg = 1398, "deferral buffer exceeded capacity 5"
        else:
            pattern, text = PERIODIC.pattern, PERIODIC.text
            sm = StreamMatcher(pattern, 4, seed=2)
            start = 4096
            sm.scan(text[:start], out)
            sm = copy.copy(sm)
            sm.H //= 4
            at, msg = 4225, "fingerprint history expired for level 2"
        assert sm.mode == "rand"
        core = sm.suba
    else:
        inst = make_instance("planted", 600, 6000, 2, seed=6)
        pattern = inst.pattern
        text = near_misses(pattern, inst.text, range(2), 3, 3)
        sm = StreamMatcher(pattern, 2, mode="det")
        ref = DetMatcher(build_profile(pattern, 2))
        ref.scan(text)
        core = sm.det.core
        core.pend_cap = cap = ref.core.pend_peak - 1
        at, msg = None, f"deferral buffer exceeded capacity {cap}"
    with pytest.raises(StructuralViolation, match=f"^{msg}$"):
        if where == "feed":
            filt = AlphabetFilter(densify_pattern(pattern)[1])
            for k in range(0, len(text), 500):
                sm.feed(filt.scan_pred(text[k : k + 500]), out)
        else:
            for k in range(start, len(text), 1000):
                sm.scan(text[k : k + 1000], out)
    if at is None:
        at = core.i
        # The arrival that overflowed waits in the buffer.
        assert len(core.pending) == cap + 1
    m = len(pattern)
    want = [s + m - 1 for s in naive_all_matches(pattern, text)]
    assert sm.i == at and out == [e for e in want if e < at]
    return sm, text[at + 1 :], msg


@pytest.mark.parametrize("where", ["stretch", "outside", "det", "feed"])
def test_an_engine_error_ends_the_stream(where):
    # After the error, every call on the matcher, on its engine's core and
    # on a deep copy or a pickle of it raises UsageError naming the error
    # (a fed matcher's step and scan refuse as before, since its table is
    # dropped), and `i` stays at the arrival that raised.  The stopped
    # matcher keeps no reference cycle: it goes without the cyclic
    # collector.
    gc.disable()
    try:
        sm, rest, msg = stopped_matcher(where)
        at = sm.i
        copies = [copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))]
        for c in (sm, *copies):
            named = (c.feed,) if where == "feed" else (c.step, c.scan, c.feed)
            for call in (c.step, c.scan, c.feed):
                arg = rest[0] if call == c.step else rest
                with pytest.raises(UsageError) as err:
                    call(arg)
                assert (msg in str(err.value)) == (call in named)
            core = c.suba if c.mode == "rand" else c.det.core
            with pytest.raises(UsageError, match=msg):
                core.step_pred(1)
            assert c.i == core.i == at
        gone = weakref.ref(sm)
        del sm, copies, c, named, call, core, err
        assert gone() is None
    finally:
        gc.enable()


def block_tiling(sigma, g, m, n, seed):
    """A pattern and a text cut from one tiling of a block of length g:
    the filler 0 everywhere but at sigma - 1 random offsets, which hold
    symbols 1 .. sigma - 1 once each.  Each of those recurs at distance
    exactly g, and the pattern matches every g arrivals."""
    rng = random.Random(seed)
    block = [0] * g
    for sym, off in enumerate(rng.sample(range(g), sigma - 1), 1):
        block[off] = sym
    text = block * ((m + n) // g + 1)
    x = rng.randrange(g)
    return text[x : x + m], text[m : m + n]


# g = 300 lies in (m0, m) = (135, 1000): every recurrence enters the
# distance buffer and each level's zeroing queue, whose 12 * sigma slots
# wrap within the text, and inside a window a recurrence from before the
# window's start reads as a first occurrence that the level checks zero
# (without the zeroing, 16 of the 17 matches are lost).
BLOCKS = block_tiling(4, 300, 1000, 6000, seed=13)


def test_zeroing_queues_that_wrap_answer_as_the_oracle():
    pattern, text = BLOCKS
    sm = StreamMatcher(pattern, 4, seed=1)
    assert sm.mode == "rand" and sm.m0 < 300
    want = [s + 999 for s in naive_all_matches(pattern, text)]
    assert len(want) == 17
    assert sm.scan(text) == want
    assert min(sm.dq_next[1:]) > sm.dq_cap


@pytest.mark.parametrize(
    "cap, why, at, seed, batch",
    [
        (1, "level 1 zeroing queue evicted unscanned entries", 346, 27, 7),
        (2, "level 1 may have lost zeroing candidates", 696, 1, _SCAN_BATCH),
        (6, "level 2 may have lost zeroing candidates", 1199, 13, _SCAN_BATCH),
    ],
)
def test_a_zeroing_queue_too_small_raises(monkeypatch, cap, why, at, seed, batch):
    # On block tilings like BLOCKS (seed 13): with 2 slots, level 1's ring
    # has lost entries inside its zeroing range before a split; with 6,
    # level 2's, and scanning from the ring's front there would report 1 of
    # the 17 matches and raise nothing.  A split scans up to
    # _SCAN_BATCH - 7 entries at once, and a level's ring takes at most one
    # entry per turn, so no capacity alone evicts an entry that a check
    # still has to scan: with a batch of 7 a split scans none, and then a
    # one-slot ring loses the entry it held at the split to the one pushed
    # before the level's next turn.
    monkeypatch.setattr(stream_matcher, "_SCAN_BATCH", batch)
    pattern, text = block_tiling(4, 300, 1000, 6000, seed=seed)
    sm = StreamMatcher(pattern, 4, seed=1)
    assert sm.mode == "rand" and sm.m0 < 300
    sm.dq_cap = cap
    sm.dq_bufs = [None] + [[None] * cap for _ in range(sm.s)]
    out = []
    with pytest.raises(StructuralViolation, match=f"^{why}$"):
        sm.scan(text, out)
    assert sm.i == at
    assert out == [s + 999 for s in naive_all_matches(pattern, text) if s + 999 < at]
    ell = 1 + at % sm.s
    assert why.startswith(f"level {ell} ") and sm.lv_ip[ell] >= 0
