"""Acceptance suite: one test per criterion, one verdict line each.

Sizes and tolerances follow the stated requirements; instance sampling
within the allowed ranges is skewed toward smaller sizes so the whole
suite stays inside its runtime budgets.  Every matcher run that raises
StructuralViolation is counted, and every criterion requires that count
to be zero.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from parmatch.det_matcher import DetMatcher
from parmatch.errors import StructuralViolation
from parmatch.gen import make_instance, periodic_instance, planted_instance
from parmatch.alphabet_filter import AlphabetFilter, densify_pattern
from parmatch.oracle import (
    naive_all_matches,
    naive_pperiod,
    verify_match_structure,
)
from parmatch.pattern import (
    build_compressed_pred,
    build_profile,
    compute_prefix_pperiods,
)
from parmatch.predecessor import pred_string
from parmatch.stream_matcher import OP_BUDGET, StreamMatcher

from gaps import gap_instance


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {verdict}: {detail}")
    assert ok, detail


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


# ----------------------------------------------------------------------
# 1. Deterministic path equals the oracle exactly.


def test_c01_det_oracle_equivalence():
    rng = random.Random(101)
    sigmas = [1, 2, 4, 8, 16]
    kinds = ["random", "planted", "periodic"]
    trials = 10_000
    bad = 0
    t0 = time.perf_counter()
    for t in range(trials):
        sigma = sigmas[t % len(sigmas)]
        kind = kinds[t % len(kinds)]
        m = log_uniform(rng, 1, 500)
        inst = make_instance(kind, m, 10 * m, sigma, seed=rng.randrange(2**31))
        want = naive_all_matches(inst.pattern, inst.text)
        dm = DetMatcher(build_profile(inst.pattern, sigma))
        got = [e - m + 1 for e in dm.scan(inst.text)]
        if got != want:
            bad += 1
    # adversarial shapes at full size
    for pattern, sigma in [
        ([0] * 500, 2),
        (list(range(16)) * 31 + [0, 1, 2, 3], 16),
        ([0, 1] * 250, 2),
        (list(range(16)), 16),
    ]:
        m = len(pattern)
        text = [rng.randrange(sigma) for _ in range(10 * m)]
        text[m : 2 * m] = pattern
        want = naive_all_matches(pattern, text)
        got = [e - m + 1 for e in DetMatcher(build_profile(pattern, sigma)).scan(text)]
        if got != want:
            bad += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        bad == 0 and elapsed < 120,
        f"{trials}+4 instances, {bad} discrepancies, {elapsed:.1f}s (< 120s)",
    )


# ----------------------------------------------------------------------
# 2. Randomized path equals the oracle exactly, no structural violations.


def test_c02_rand_oracle_equivalence():
    rng = random.Random(202)
    t0 = time.perf_counter()
    bad = 0
    violations = 0
    n_rand = 0
    total = 0

    def run(inst, prime_bits=61):
        """Check one instance; returns the matcher, or None on a violation."""
        nonlocal bad, violations, n_rand, total
        total += 1
        m = len(inst.pattern)
        want = naive_all_matches(inst.pattern, inst.text)
        try:
            sm = StreamMatcher(
                inst.pattern, inst.sigma, prime_bits=prime_bits, seed=987654321
            )
            got = [e - m + 1 for e in sm.scan(inst.text)]
        except StructuralViolation:
            violations += 1
            return None
        if sm.mode == "rand":
            n_rand += 1
        if got != want:
            bad += 1
        return sm

    min_m = {2: 260, 4: 520, 8: 2080}
    # small bracket: all three kinds
    for t in range(780):
        sigma = (2, 4)[t % 2]
        kind = ("random", "planted", "periodic")[t % 3]
        m = log_uniform(rng, min_m[sigma], 1500)
        if kind == "periodic":
            delta = sigma * max(1, (m - 1).bit_length())
            block = 3 * delta + rng.randint(2, 40)
            if block >= m:
                kind = "planted"
        if kind == "periodic":
            run(periodic_instance(m, 4 * m, sigma, rng.randrange(2**31), block=block))
        else:
            run(make_instance(kind, m, 4 * m, sigma, seed=rng.randrange(2**31)))
    # medium bracket
    for t in range(220):
        sigma = (2, 4, 8)[t % 3]
        kind = ("random", "planted")[t % 2]
        m = log_uniform(rng, max(min_m[sigma], 1500), 10_000)
        run(make_instance(kind, m, 4 * m, sigma, seed=rng.randrange(2**31)))
    # large bracket, planted matches included
    for t in range(28):
        sigma = (4, 8)[t % 2]
        m = log_uniform(rng, 10_000, 50_000)
        run(planted_instance(m, 4 * m, sigma, seed=rng.randrange(2**31)))
    # full-size corner
    for sigma in (4, 8):
        run(planted_instance(1 << 16, 4 << 16, sigma, seed=rng.randrange(2**31)))
    # long-distance bracket: one symbol recurs once per round of the
    # text, at a distance inside (m0, m), at m - 1, m or m + 1, or beyond
    # a 13-bit prime (m <= p); the rest of a round is random, and every
    # round the same.  The pattern is a window of the text that holds the
    # recurring symbol at an offset past the ladder base, so it matches
    # once per round, or it misses by one symbol in its second half.
    dists = ("inside", "m-1", "m", "m+1", "beyond p")
    far = {d: 0 for d in dists}
    for t in range(80):
        sigma = (3, 4)[t % 2]
        dist = dists[t // 2 % 5]
        m = log_uniform(rng, 520, 1500)
        bits = 13 if dist == "beyond p" else 61
        gap = {
            "inside": rng.randint(m // 2, m - 2),
            "m-1": m - 1,
            "m": m,
            "m+1": m + 1,
            "beyond p": 8191 + rng.randint(1, 500),
        }[dist]
        inst = gap_instance(m, 3 * gap + 2 * m, sigma, t, gap, common=sigma - 1)
        a = -rng.randrange(m // 4, m) % gap
        pattern = inst.text[a : a + m]
        if t // 10 % 2:
            k = rng.randrange(m // 2, m)
            pattern[k] = (pattern[k] + 1) % (sigma - 1)
        sm = run(dataclasses.replace(inst, pattern=pattern), bits)
        if sm is not None and sm.mode == "rand" and (dist != "inside" or sm.m0 < gap):
            far[dist] += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        bad == 0
        and violations == 0
        and n_rand >= 1000
        and min(far.values()) >= 4
        and elapsed < 600,
        f"{total} instances ({n_rand} randomized-mode; long distances "
        f"{', '.join(f'{d}: {k}' for d, k in far.items())}), {bad} discrepancies, "
        f"{violations} structural violations, {elapsed:.0f}s (< 600s)",
    )


# ----------------------------------------------------------------------
# 3+4. Space and time scaling of the randomized matcher.


@pytest.fixture(scope="module")
def scaling_runs():
    sigma = 4
    out = {}
    for logm in (12, 14, 16, 18, 20):
        m = 1 << logm
        delta = sigma * logm
        n = 2 * m + 32 * delta
        inst = planted_instance(m, n, sigma, seed=777, plants=2)
        sm = StreamMatcher(inst.pattern, sigma, seed=55)
        assert sm.mode == "rand"
        matches = sm.scan(inst.text)
        assert matches, f"planted match missing at m=2^{logm}"
        out[logm] = {
            "peak": sm.live_words_peak(),
            "delta": delta,
            "max_ops": sm.max_ops(),
            "budget": OP_BUDGET,
        }
    return out


def test_c03_space_scaling(scaling_runs):
    sigma = 4
    cs = {k: v["peak"] / v["delta"] for k, v in scaling_runs.items()}
    ratio = max(cs.values()) / min(cs.values())
    peaks = [scaling_runs[k]["peak"] for k in sorted(scaling_runs)]
    increases = [b - a for a, b in zip(peaks, peaks[1:])]
    add_ok = all(inc <= 256 * sigma for inc in increases)
    report(
        3,
        ratio <= 2.0 and add_ok,
        f"peak words {peaks}, fitted C per size "
        f"{[round(c, 1) for c in cs.values()]} (max/min {ratio:.2f} <= 2), "
        f"per-doubling increase {increases} each <= {256 * sigma} words",
    )


def test_c04_time_bound(scaling_runs):
    sizes = (12, 16, 20)
    budgets = [scaling_runs[k]["budget"] for k in sizes]
    observed = [scaling_runs[k]["max_ops"] for k in sizes]
    within = all(o <= b for o, b in zip(observed, budgets))
    identical = len(set(budgets)) == 1
    report(
        4,
        identical and within,
        f"per-arrival op ceiling {budgets[0]} identical across m in 2^{sizes} "
        f"(+-0); observed maxima {observed} all within it",
    )


# ----------------------------------------------------------------------
# 5. Deterministic bounds: O(sigma + rho) words, at most 2 shifts.


def test_c05_det_bounds():
    rng = random.Random(505)
    sigma = 4
    results = []
    max_shift_seen = 0
    for target_rho in (1, 10, 100, 1000):
        if target_rho == 1:
            pattern = [0] * 4000
        else:
            block = [rng.randrange(sigma) for _ in range(target_rho)]
            pattern = [block[j % target_rho] for j in range(4 * target_rho)]
        rho = naive_pperiod(pattern)
        m = len(pattern)
        text = [rng.randrange(sigma) for _ in range(6 * m)]
        text[m : 2 * m] = pattern
        dm = DetMatcher(build_profile(pattern, sigma))
        peak = 0
        for sym in text:
            dm.step(sym)
            if dm.core.shifts_last > max_shift_seen:
                max_shift_seen = dm.core.shifts_last
            w = dm.live_words()
            if w > peak:
                peak = w
        results.append((rho, peak, peak / (sigma + rho)))
    cs = [c for _, _, c in results]
    ratio = max(cs) / min(cs)
    report(
        5,
        max(cs) <= 32 and ratio <= 8 and max_shift_seen <= 2,
        f"(rho, peak, C) = {[(r, p, round(c, 1)) for r, p, c in results]}; "
        f"single C = {max(cs):.1f} <= 32, spread {ratio:.1f}x, "
        f"max shifts/arrival = {max_shift_seen} <= 2",
    )


# ----------------------------------------------------------------------
# 6. Match-structure compression is sound on planted instances.


def test_c06_match_structure():
    rng = random.Random(606)
    violations = 0
    checked = 0
    progressions = 0
    for trial in range(520):
        sigma = rng.choice([2, 3, 4])
        m = rng.randint(16, 400)
        block = rng.randint(1, max(1, m // 8))
        b = [rng.randrange(sigma) for _ in range(block)]
        pattern = [b[j % block] for j in range(m)]
        text = [rng.randrange(sigma) for _ in range(3 * m)]
        i_left = rng.randint(0, m // 2)
        if trial % 2:
            # plant exactly one window
            text[i_left : i_left + m] = pattern
        else:
            # extend the periodic run past the window so matches recur
            run_len = min(3 * m - i_left, 2 * m + rng.randint(0, m))
            text[i_left : i_left + run_len] = [b[j % block] for j in range(run_len)]
        expl, prog, violation = verify_match_structure(pattern, text, i_left)
        checked += 1
        if violation is not None:
            violations += 1
        elif prog and len(prog) >= 2:
            progressions += 1
    report(
        6,
        violations == 0 and progressions > 50,
        f"{checked} seeded instances, {violations} violations, "
        f"{progressions} nontrivial progressions block-checked",
    )


# ----------------------------------------------------------------------
# 7. Compressed predecessor columns: zeros then one constant.


def test_c07_compressed_pred_shape():
    rng = random.Random(707)
    bad = 0
    for _ in range(1000):
        sigma = rng.choice([2, 3, 4, 8])
        m = rng.randint(1, 300)
        pattern = [rng.randrange(sigma) for _ in range(m)]
        rho = compute_prefix_pperiods(pattern)[m]
        try:
            cp = build_compressed_pred(pattern, rho)
        except StructuralViolation:
            bad += 1
            continue
        pp = pred_string(pattern)
        ks, cs = cp.ks, cp.cs
        if any((0 if i // rho < ks[i % rho] else cs[i % rho]) != pp[i] for i in range(m)):
            bad += 1
    report(7, bad == 0, f"1000 random patterns, {bad} shape/access failures")


# ----------------------------------------------------------------------
# 8. Long-gap buffers stay within their guaranteed capacities.


def test_c08_buffer_bounds():
    # Recurrences in bursts at m - 2*sigma - 3, just inside (m0, m): a
    # distance of m or more is a first occurrence and is never buffered.
    rng = random.Random(808)
    worst_b = 0
    worst_d_ratio = 0.0
    violations = 0
    runs = 0
    for sigma, m in ((2, 1100), (4, 2100), (8, 8300)):
        for trial in range(3):
            gap = m - 2 * sigma - 3
            inst = gap_instance(m, 14 * m, sigma, rng.randrange(2**31), gap)
            try:
                sm = StreamMatcher(inst.pattern, sigma, seed=99)
                if sm.mode != "rand":
                    continue
                assert sm.m0 < gap
                sm.scan(inst.text)
            except StructuralViolation:
                violations += 1
                continue
            runs += 1
            worst_b = max(worst_b, sm.b_peak)
            worst_d_ratio = max(worst_d_ratio, sm.d_fill_max() / (12 * sigma))
            assert sm.b_peak <= sigma
            assert sm.d_fill_max() <= 12 * sigma
    report(
        8,
        violations == 0 and runs >= 6 and worst_b >= 1 and worst_d_ratio > 0,
        f"{runs} adversarial runs, max |B| = {worst_b} (bound sigma), "
        f"max D fill = {worst_d_ratio:.2f} of 12*sigma, {violations} violations",
    )


# ----------------------------------------------------------------------
# 9. Fingerprint collision rate under a deliberately small prime.


def test_c09_collision_rate():
    t0 = time.perf_counter()
    p = 8191
    length = 32
    rng = np.random.default_rng(909)
    trials = 0
    collisions = 0
    batch = 1000
    for i in range(120):
        r = int(rng.integers(1, p))
        powers = np.empty(length, dtype=np.int64)
        powers[0] = 1
        for k in range(1, length):
            powers[k] = powers[k - 1] * r % p
        a = rng.integers(0, p, size=(batch, length), dtype=np.int64)
        if i % 2:
            # independent random partner: difference polynomial is random
            b = rng.integers(0, p, size=(batch, length), dtype=np.int64)
        else:
            # partner chosen so the difference polynomial has length-1
            # roots: the regime the collision bound actually guards
            diff = np.zeros((batch, length), dtype=np.int64)
            diff[:, 0] = 1
            roots = rng.integers(0, p, size=(batch, length - 1))
            for k in range(length - 1):
                shifted = np.roll(diff, 1, axis=1)
                shifted[:, 0] = 0
                diff = (shifted - roots[:, k : k + 1] * diff) % p
            b = (a + diff) % p
        distinct = (a != b).any(axis=1)
        fa = (a * powers).sum(axis=1) % p
        fb = (b * powers).sum(axis=1) % p
        collisions += int(((fa == fb) & distinct).sum())
        trials += int(distinct.sum())
    rate = collisions / trials
    bound = 4 * length / (p - 1)
    elapsed = time.perf_counter() - t0
    report(
        9,
        trials >= 100_000 and 0 < collisions and rate <= bound and elapsed < 60,
        f"{trials} distinct pairs, {collisions} collisions, rate {rate:.5f} <= "
        f"{bound:.5f}, {elapsed:.1f}s (< 60s)",
    )


# ----------------------------------------------------------------------
# 10. The alphabet filter preserves window structure and composes.


def test_c10_filter_preservation():
    rng = random.Random(1010)
    pred_bad = 0
    compose_bad = 0
    windows_checked = 0
    for trial in range(1000):
        distinct = rng.randint(1, 5)
        m = rng.randint(1, 24)
        n = rng.randint(m, 30 * m)
        width = distinct + rng.randint(0, 4)
        raw_alpha = [rng.randrange(1 << 32) for _ in range(max(width, 1))]
        text_raw = [raw_alpha[rng.randrange(len(raw_alpha))] for _ in range(n)]
        pattern_raw = [raw_alpha[rng.randrange(distinct)] for _ in range(m)]
        if rng.random() < 0.5 and n >= m:
            i = rng.randint(0, n - m)
            text_raw[i : i + m] = pattern_raw
        dense, dcount = densify_pattern(pattern_raw)
        filt = AlphabetFilter(dcount, m)
        filtered = [filt.step(s) for s in text_raw]
        # window predecessor preservation whenever few enough distincts
        for i in range(0, n - m + 1, max(1, (n - m + 1) // 8)):
            w_raw = text_raw[i : i + m]
            if len(set(w_raw)) <= dcount:
                windows_checked += 1
                if pred_string(filtered[i : i + m]) != pred_string(w_raw):
                    pred_bad += 1
        # composition equals the oracle on the raw stream
        sm = StreamMatcher(dense, dcount + 1, seed=trial)
        got = [e - m + 1 for e in sm.scan(filtered)]
        if got != naive_all_matches(pattern_raw, text_raw):
            compose_bad += 1
    report(
        10,
        pred_bad == 0 and compose_bad == 0 and windows_checked > 1000,
        f"1000 wide-alphabet streams, {windows_checked} windows pred-checked "
        f"({pred_bad} mismatches), {compose_bad} composition discrepancies",
    )
