import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from parmatch.det_matcher import _IDLE, CONSUMES_PER_ARRIVAL, DetCore, DetMatcher
from parmatch.errors import AlphabetError, ConfigError, UsageError
from parmatch.fingerprint import FieldContext, context_new, fp_of_sequence, power_table
from parmatch.gen import make_instance, periodic_instance
from parmatch.oracle import naive_all_matches
from parmatch.pattern import build_profile
from parmatch.predecessor import NEVER, LastOccurrence, pred_string
from parmatch import stream_matcher
from parmatch.stream_matcher import _BLOCK, OP_BUDGET, StreamMatcher

from gaps import gap_instance


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


def test_forced_det_keeps_the_prime_check():
    # p = 7 for 3 bits; [0, 1] * 300 routes to det on its own, and the
    # prime is checked before routing, so rand fails the same way.
    msg = "prime 7 must exceed the alphabet size 8"
    for mode in ("auto", "det", "rand"):
        with pytest.raises(ConfigError, match=msg):
            StreamMatcher([0, 1] * 300, 8, mode=mode, prime_bits=3)


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
    # The text's first symbol recurs only inside the plant's last
    # quarter, so its long distance enters the zeroing queues and must be
    # subtracted from the level's split; without that the match is lost.
    m = 4096
    rng = random.Random(5)
    pattern = [rng.randrange(3) for _ in range(m)]
    for j in rng.sample(range(3 * m // 4, m), 40):
        pattern[j] = 3
    tail = [rng.randrange(3) for _ in range(100)]
    text = [3] + [rng.randrange(3) for _ in range(2 * m)] + pattern + tail
    assert [s + m - 1 for s in naive_all_matches(pattern, text)] == [12288]
    sm = StreamMatcher(pattern, 4, seed=5)
    assert sm.mode == "rand"
    assert sm.scan(text) == [12288]


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


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown mode 'fast'"):
        StreamMatcher([0, 1, 2, 3], 4, mode="fast")


def test_small_prime_rejected_against_alphabet():
    with pytest.raises(ConfigError):
        StreamMatcher([0, 1, 2], 300, prime_bits=7)  # p = 127


def test_pattern_distance_beyond_the_prime_rejected():
    # Symbol 3 recurs 1495 positions later, past the 7-bit prime 127, in
    # a pattern of 3000 symbols.  The randomized route refuses any pattern
    # longer than the prime, whether forced or chosen by routing; the
    # deterministic engine takes it with the same prime.
    rng = random.Random(3)
    pattern = [rng.randrange(3) for _ in range(3000)]
    pattern[5] = pattern[1500] = 3
    for mode in ("rand", "auto"):
        with pytest.raises(ConfigError) as exc:
            StreamMatcher(pattern, 4, mode=mode, prime_bits=7)
        assert str(exc.value) == "pattern length 3000 exceeds prime 127"
    text = [rng.randrange(4) for _ in range(9000)]
    text[4000:7000] = pattern
    ends = StreamMatcher(pattern, 4, mode="det", prime_bits=7).scan(text)
    assert 6999 in ends
    assert ends == [s + 2999 for s in naive_all_matches(pattern, text)]


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


def matcher_state(sm):
    """Everything a randomized matcher carries between arrivals."""
    core = sm.suba
    return {
        "matcher": {
            name: getattr(sm, name)
            for name in StreamMatcher.__slots__
            if name not in ("det", "tracker", "suba", "bbuf", "mq", "debug_checks", "run")
        },
        "table": None if sm.tracker is None else list(sm.tracker.table),
        "bbuf": list(sm.bbuf),
        "mq": [(list(map(list, q.segs)), q.last_pos, q.words) for q in sm.mq],
        "d_fill_max": sm.d_fill_max(),
        "suba": {
            name: getattr(core, name) for name in DetCore.__slots__ if name != "pending"
        },
        "pending": list(core.pending),
    }


@pytest.mark.parametrize(
    "kind, m, n, seed",
    [("planted", 3000, 9000, 5), ("periodic", 2500, 10000, 2), ("long_gap", 2100, 9000, 8)],
)
def test_scan_chunks_equal_step(kind, m, n, seed):
    # A matcher fed chunk by chunk through scan and one stepped through
    # the same chunks agree on every answer and on their whole state
    # after each chunk.
    if kind == "long_gap":
        # Recurrences inside (m0, m), which load the buffers.
        inst = gap_instance(m, n, 4, seed, gap=m - 11)
    else:
        inst = make_instance(kind, m, n, 4, seed=seed)
    text = inst.text
    want = [s + m - 1 for s in naive_all_matches(inst.pattern, text)]
    for chunk in (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4096, n):
        stepped = StreamMatcher(inst.pattern, 4, seed=12)
        scanned = StreamMatcher(inst.pattern, 4, seed=12)
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
    if kind == "long_gap":
        assert stepped.b_peak > 0 and stepped.d_fill_max() > 0


@pytest.mark.parametrize(
    "kind, m, n, seed, pinned",
    [
        (
            "planted", 3000, 9000, 5,
            (81474, 5995, 4757, 19, 9000, 5, 3937, 10, 8, 1858, 0),
        ),
        (
            "periodic", 2500, 10000, 2,
            (96112, 3904, 3936, 19, 10000, 6, 6160, 192, 160, 1873, 0),
        ),
        (
            # Its recurrences, past m, are first occurrences: no Bdelta.
            "long_gap", 2100, 9000, 8,
            (81000, 8999, 8985, 10, 9000, 1, 11, 5, 5, 1650, 0),
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
    # gauge's peak and the distance buffer's.
    inst = make_instance(kind, m, n, 4, seed=seed)
    ends = {s + m - 1 for s in naive_all_matches(inst.pattern, inst.text)}
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    assert sm.mode == "rand"
    core = sm.suba
    ops = shifts = units = fast = deferred = caught_up = 0
    for j, sym in enumerate(inst.text):
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
    # push to the base queue included): its share of OP_BUDGET.  This
    # instance reaches three symbols, so the caps are met, not only unseen.
    inst = make_instance("periodic", 2500, 10000, 4, seed=2)
    sm = StreamMatcher(inst.pattern, 4, seed=12)
    assert sm.mode == "rand"
    core, q0 = sm.suba, sm.mq[0]
    at_cap = 0
    for j, sym in enumerate(inst.text):
        consumed = core.consumed
        sm.step(sym)
        took = core.consumed - consumed
        pushed = q0.last_pos == j - sm.m0 + 1
        assert took <= CONSUMES_PER_ARRIVAL + 1, j
        assert 1 + took + 3 * pushed <= 7, j
        at_cap += took == CONSUMES_PER_ARRIVAL + 1
    assert at_cap == 32


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
    # Fed its predecessor distances from elsewhere, a rand-routed matcher
    # answers and moves as one that scans the symbols; it drops the front
    # end's table, which no longer describes the stream, and refuses step
    # and scan after.
    inst = make_instance("planted", 3000, 9000, 4, seed=5)
    text = inst.text
    tracker = LastOccurrence(4)
    preds = [tracker.step(sym, j) for j, sym in enumerate(text)]
    scanned = StreamMatcher(inst.pattern, 4, seed=12)
    fed = StreamMatcher(inst.pattern, 4, seed=12)
    assert fed.mode == "rand"
    got = []
    for k in range(0, len(text), 1000):
        assert fed.feed(preds[k : k + 1000], got) is got
        scanned.scan(text[k : k + 1000])
        assert {**matcher_state(scanned), "table": None} == matcher_state(fed), k
    assert [e - 2999 for e in got] == naive_all_matches(inst.pattern, text)
    assert got
    with pytest.raises(UsageError):
        fed.step(text[0])
    with pytest.raises(UsageError):
        fed.scan(text[:5])
    assert matcher_state(fed) == {**matcher_state(scanned), "table": None}


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
    # copy builds its own from the copied state, and computes the earliest
    # deadline of the waiting levels again from lv_phase and lv_ip.  The
    # periodic cut falls while four levels wait for their checks and the
    # match queues hold candidates, and after it checks complete while two
    # or more levels wait; the two planted cuts while one level, or two,
    # wait before their deadlines and nothing else is in flight, so only
    # the rebuilt deadline wakes phase B; the long_gap cut on a quiet
    # arrival, with every level idle and nothing in flight.
    for kind, m, n, seed, cut, waiting, queued in [
        ("periodic", 2500, 10000, 2, 5000, 4, True),
        ("planted", 3000, 9000, 5, 7000, 1, False),
        ("planted", 6000, 18000, 5, 11000, 2, False),
        ("long_gap", 2100, 9000, 8, 5000, 0, False),
    ]:
        inst = make_instance(kind, m, n, 4, seed=seed)
        sm = StreamMatcher(inst.pattern, 4, seed=12)
        assert sm.mode == "rand"
        sm.scan(inst.text[:cut])
        phases = sm.lv_phase
        assert phases.count(stream_matcher._WAIT) == waiting, kind
        assert phases.count(stream_matcher._IDLE) == len(phases) - waiting, kind
        in_flight = (bool(sm.mq_words), sm.bcur, len(sm.bbuf), sm.c_ip)
        assert in_flight == (queued, None, 0, -1), kind
        if kind == "planted":
            dues = [
                sm.lv_ip[ell] + sm.mlen[ell] + sm.delta
                for ell, ph in enumerate(phases)
                if ph == stream_matcher._WAIT
            ]
            assert sm.i < min(dues), kind
        copies = [copy.deepcopy(sm), pickle.loads(pickle.dumps(sm))]
        rest = inst.text[cut:]
        for matcher in [sm] + copies:
            matcher.debug_checks = []
        want = sm.scan(rest)
        ends = [s + m - 1 for s in naive_all_matches(inst.pattern, inst.text)]
        assert want == [e for e in ends if e >= cut], kind
        assert bool(want) == bool(waiting), kind
        for other in copies:
            assert other.scan(rest) == want, kind
            assert other.debug_checks == sm.debug_checks, kind
            assert matcher_state(other) == matcher_state(sm), kind


def test_two_levels_scanning_with_the_queues_empty():
    # Two level checks run at once while the match queues, the distance
    # buffer and the tail check are empty.  The first to complete must
    # leave phase B running for the other.
    inst = make_instance("planted", 650, 2600, 2, seed=905036695)
    want = [s + 649 for s in naive_all_matches(inst.pattern, inst.text)]
    assert want
    stepped = StreamMatcher(inst.pattern, 2, seed=987654321)
    scanned = StreamMatcher(inst.pattern, 2, seed=987654321)
    assert stepped.mode == "rand"
    stepped.debug_checks = []
    scanned.debug_checks = []
    ends = []
    reached = False
    for k, sym in enumerate(inst.text):
        if stepped.step(sym):
            ends.append(k)
        reached = reached or (
            stepped.lv_phase.count(stream_matcher._SCAN) >= 2
            and stepped.mq_words == 0
            and not stepped.bbuf
            and stepped.bcur is None
            and stepped.c_ip < 0
        )
    assert reached
    assert ends == want
    assert scanned.scan(inst.text) == want
    assert scanned.debug_checks == stepped.debug_checks


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
