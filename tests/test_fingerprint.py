import pytest
from hypothesis import given, settings, strategies as st

from parmatch import fingerprint
from parmatch.errors import ConfigError, UsageError
from parmatch.fingerprint import (
    EMPTY_FP,
    FieldContext,
    Fingerprint,
    ZeroEntry,
    context_new,
    fp_append,
    fp_of_sequence,
    fp_split,
    fp_zero,
    prime_for_bits,
)


def ctx101():
    return FieldContext(101, 7)


def test_prime_widths():
    assert prime_for_bits(61) == (1 << 61) - 1
    assert prime_for_bits(13) == 8191
    assert prime_for_bits(31) == (1 << 31) - 1
    with pytest.raises(ConfigError):
        prime_for_bits(2)
    with pytest.raises(ConfigError):
        prime_for_bits(63)


def test_context_deterministic():
    a = context_new(61, seed=1)
    b = context_new(61, seed=1)
    assert a == b
    assert a.p == (1 << 61) - 1
    assert 1 <= a.r < a.p
    assert context_new(61, seed=2).r != a.r


def test_context_small_prime_constructible():
    # Tiny widths build fine; the alphabet check happens at matcher
    # construction, not here.
    c = context_new(7, seed=3)
    assert c.p == 127


def test_fp_of_sequence_direct():
    fp = fp_of_sequence(ctx101(), [1, 2, 3])
    assert fp == Fingerprint(61, 3)  # 1 + 2*7 + 3*49 mod 101


def test_fp_of_sequence_empty_and_zeros():
    c = ctx101()
    assert fp_of_sequence(c, []) == EMPTY_FP
    assert fp_of_sequence(c, [0, 0, 0]) == Fingerprint(0, 3)


def test_fp_of_sequence_rejects_large_values():
    with pytest.raises(UsageError):
        fp_of_sequence(ctx101(), [101])


K = fingerprint._BLOCK


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([0, 1, K - 1, K, K + 1, 3 * K + 5]),
    st.sampled_from([5, 7, 13, 17, 19, 31, 61]),
    st.data(),
)
def test_fp_of_sequence_equals_defining_sum(n, bits, data):
    # Block boundaries on both sides, prime widths from 5 to 61 bits.
    c = context_new(bits, data.draw(st.integers(0, 2**32), label="seed"))
    p, r = c.p, c.r
    seq = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    want = 0
    for k, v in enumerate(seq):
        want = (want + v * pow(r, k, p)) % p
    assert fp_of_sequence(c, seq) == Fingerprint(want, n)
    assert fp_of_sequence(c, iter(seq)) == Fingerprint(want, n)


@pytest.mark.parametrize("n", [1, K - 1, K, K + 1, 3 * K + 5])
@pytest.mark.parametrize("bad", [101, 500, -1])
def test_fp_of_sequence_rejects_value_in_last_block(n, bad):
    seq = [100] * n
    seq[-1] = bad
    with pytest.raises(UsageError, match=f"value {bad} outside \\[0, 101\\)"):
        fp_of_sequence(ctx101(), seq)


def test_fp_of_sequence_names_first_bad_value():
    seq = [1] * (2 * K)
    seq[3] = -4
    seq[-1] = 200
    with pytest.raises(UsageError, match="value -4 outside"):
        fp_of_sequence(ctx101(), seq)


def test_fp_append_matches_batch():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2])
    c.advance()
    c.advance()
    assert fp_append(c, fp, 3, 2) == Fingerprint(61, 3)


def test_fp_append_zero_keeps_value():
    c = ctx101()
    fp = fp_of_sequence(c, [5, 6])
    c.advance()
    c.advance()
    out = fp_append(c, fp, 0, 2)
    assert out.value == fp.value and out.length == 3


def test_fp_append_requires_power_position():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2])
    with pytest.raises(UsageError):
        fp_append(c, fp, 3, 2)  # context clock still at 0


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40))
def test_fp_append_chain_equals_batch(seq):
    c = ctx101()
    fp = EMPTY_FP
    for i, v in enumerate(seq):
        if i > 0:
            c.advance()
        fp = fp_append(c, fp, v, i)
    assert fp == fp_of_sequence(FieldContext(101, 7), seq)


def test_fp_split_example():
    c = ctx101()
    fp_b = fp_of_sequence(c, [1, 2, 3])
    fp_a = fp_of_sequence(c, [1])
    r_inv = pow(7, 99, 101)
    assert r_inv == 29
    assert fp_split(c, fp_b, fp_a, r_inv) == Fingerprint(23, 2)
    assert fp_of_sequence(c, [2, 3]).value == 23


def test_fp_split_degenerate():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2])
    with pytest.raises(UsageError):
        fp_split(c, fp, fp, 29)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=50),
    st.data(),
)
def test_fp_split_round_trip(seq, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(seq) - 2))
    c = ctx101()
    fp_b = fp_of_sequence(c, seq)
    fp_a = fp_of_sequence(c, seq[: cut + 1])
    rn = pow(c.r_inv, cut + 1, c.p)
    assert fp_split(c, fp_b, fp_a, rn) == fp_of_sequence(c, seq[cut + 1 :])


def test_fp_zero_example():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2, 3])
    out = fp_zero(c, fp, [ZeroEntry(1, 2, 7)], base=0)
    assert out == Fingerprint(47, 3)
    assert fp_of_sequence(c, [1, 0, 3]).value == 47


def test_fp_zero_identity_and_all():
    c = ctx101()
    fp = fp_of_sequence(c, [4, 5, 6])
    assert fp_zero(c, fp, [], base=0) == fp
    zeros = [ZeroEntry(k, v, pow(7, k, 101)) for k, v in enumerate([4, 5, 6])]
    assert fp_zero(c, fp, zeros, base=0) == Fingerprint(0, 3)


def test_fp_zero_out_of_span():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2])
    with pytest.raises(UsageError):
        fp_zero(c, fp, [ZeroEntry(5, 1, 1)], base=0)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=30),
    st.data(),
)
def test_fp_zero_rebased_window(seq, data):
    # Zero a position inside a rebased suffix window, checking against a
    # direct fingerprint of the modified window.
    base = data.draw(st.integers(min_value=1, max_value=len(seq) - 2))
    z = data.draw(st.integers(min_value=base, max_value=len(seq) - 1))
    c = ctx101()
    window = seq[base:]
    fp_win = fp_of_sequence(c, window)
    entry = ZeroEntry(z, seq[z], pow(c.r, z, c.p))
    out = fp_zero(c, fp_win, [entry], base=base)
    modified = list(window)
    modified[z - base] = 0
    assert out == fp_of_sequence(c, modified)


def test_power_state_inverse():
    c = context_new(31, seed=5)
    for _ in range(200):
        c.advance()
    assert c.r_pow * c.r_neg_pow % c.p == 1
    assert c.r_pow == pow(c.r, 200, c.p)


def test_collision_bound_mechanism():
    # Two sequences collide exactly when the base lands on a root of their
    # difference polynomial, so a pair built from k distinct roots collides
    # for exactly k of the p-1 possible bases: the |S|/(p-1) bound, exactly.
    import random

    p = 101
    rng = random.Random(0)
    roots = rng.sample(range(p), 5)
    coeffs = [1]
    for x in roots:
        coeffs = [(-x * coeffs[0]) % p] + [
            (coeffs[k - 1] - x * coeffs[k]) % p for k in range(1, len(coeffs))
        ] + [1]
    a = [rng.randrange(p) for _ in range(len(coeffs))]
    b = [(va + d) % p for va, d in zip(a, coeffs)]
    hits = 0
    for r in range(1, p):
        c = FieldContext(p, r)
        if fp_of_sequence(c, a) == fp_of_sequence(c, b):
            hits += 1
    assert hits == len(roots)
    assert hits / (p - 1) <= len(a) / (p - 1)
