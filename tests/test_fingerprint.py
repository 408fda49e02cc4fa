import random
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parmatch import fingerprint
from parmatch.errors import ConfigError, UsageError
from parmatch.fingerprint import (
    FieldContext,
    context_new,
    fp_of_sequence,
    power_table,
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
    assert (a.p, a.r, a.r_inv) == (b.p, b.r, b.r_inv)
    assert a.p == (1 << 61) - 1
    assert 1 <= a.r < a.p
    assert context_new(61, seed=2).r != a.r


def test_context_hashes():
    assert {context_new(61, 1)}


@pytest.mark.parametrize(
    "p, r, why",
    [
        (91, 2, "modulus 91 is not prime"),
        (1, 1, "modulus 1 is not prime"),
        (101, 0, r"base 0 outside \[1, 101\)"),
        (101, 101, r"base 101 outside \[1, 101\)"),
    ],
)
def test_context_rejects_a_bad_field(p, r, why):
    with pytest.raises(ConfigError, match=f"^{why}$"):
        FieldContext(p, r)


def test_context_small_prime_constructible():
    # Tiny widths build fine; the alphabet check happens at matcher
    # construction, not here.
    c = context_new(7, seed=3)
    assert c.p == 127


def test_fp_of_sequence_direct():
    fp = fp_of_sequence(ctx101(), [1, 2, 3])
    assert type(fp) is int and fp == 61  # 1 + 2*7 + 3*49 mod 101


def test_fp_of_sequence_reads_wide_values_from_any_iterable():
    # Values of 2^31 or more take two value limbs.  The hypothesis test
    # below draws such values too, but not on every run.
    c = context_new(61, seed=1)
    seq = [2**31, 5, c.p - 1]
    want = sum(v * pow(c.r, k, c.p) for k, v in enumerate(seq)) % c.p
    assert fp_of_sequence(c, iter(seq)) == want


def test_fp_of_sequence_empty_and_zeros():
    c = ctx101()
    assert fp_of_sequence(c, []) == 0
    assert fp_of_sequence(c, [0, 0, 0]) == 0


def test_fp_of_sequence_rejects_large_values():
    with pytest.raises(UsageError):
        fp_of_sequence(ctx101(), [101])


K = fingerprint._BLOCK
CH = fingerprint._CHUNK


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(
        [0, 1, K - 1, K, K + 1, 3 * K + 5, CH - 1, CH, CH + 1, 2 * CH + K + 3]
    ),
    st.sampled_from([3, 5, 7, 13, 17, 19, 31, 61, 62]),
    st.data(),
)
def test_fp_of_sequence_equals_defining_sum(n, bits, data):
    # Block and chunk boundaries on both sides, prime widths from 3 to 62
    # bits, and values either all below 2^31 (one value limb) or anywhere
    # in [0, p) with both ends present (two value limbs).
    c = context_new(bits, data.draw(st.integers(0, 2**32), label="seed"))
    p, r = c.p, c.r
    if n <= 3 * K + 5:
        seq = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32), label="values"))
        top = p if data.draw(st.booleans(), label="wide") else min(p, 1 << 31)
        seq = [rng.choice((0, top - 1, rng.randrange(top))) for _ in range(n)]
    want, rpow = 0, 1
    for v in seq:
        want = (want + v * rpow) % p
        rpow = rpow * r % p
    assert fp_of_sequence(c, seq) == want
    assert fp_of_sequence(c, iter(seq)) == want


EDGES = [2**21 - 1, 2**21, 2**31 - 1, 0]


@pytest.mark.parametrize("bits", [3, 5, 7, 13, 17, 19, 31, 61, 62])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rows=st.lists(
        st.lists(
            st.one_of(st.sampled_from(EDGES), st.integers(0, 2**31 - 1)),
            min_size=32,
            max_size=32,
        ),
        max_size=3,
    ),
)
def test_block_sums_equal_the_defining_sum(bits, seed, rows):
    # The one block-sum kernel, as the streaming matcher calls it: rows of
    # 32 values below 2^31, a row of the limb edges 2^21 - 1, 2^21 and
    # 2^31 - 1 always among them, against r^0 .. r^31 for a prime of each
    # width.  Every row's sum of values times powers is exact, unreduced.
    powers = power_table(context_new(bits, seed), 31)
    rows = [*rows, EDGES * 8]
    got = fingerprint.block_sums(np.array(rows, np.int64), fingerprint.power_limbs(powers))
    assert got == [sum(map(mul, powers, row)) for row in rows]


# Lengths: partial blocks (1, 127-389), the block's edges (K - 1 to
# 3K + 5) and a bad value in the second chunk (CH + 1).
@pytest.mark.parametrize(
    "n", [1, 127, 128, 129, 389, K - 1, K, K + 1, 3 * K + 5, CH + 1]
)
@pytest.mark.parametrize("bad", [101, 500, -1, 2**64])
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
    seq[2] = 2.0
    with pytest.raises(UsageError, match="value 2.0 is not an integer"):
        fp_of_sequence(ctx101(), seq)


# The engines run the field arithmetic inline; the tests below state each
# identity they rely on over `fp_of_sequence` alone.


def test_fp_append_matches_batch():
    # Appending v at position i adds v * r^i: the running prefix
    # fingerprint of the base phase.
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2])
    assert (fp + 3 * 7**2) % 101 == fp_of_sequence(c, [1, 2, 3]) == 61


def test_fp_append_zero_keeps_value():
    c = ctx101()
    fp = fp_of_sequence(c, [5, 6])
    assert fp_of_sequence(c, [5, 6, 0]) == fp


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40))
def test_fp_append_chain_equals_batch(seq):
    # One multiplication per position keeps r^i, as the matcher does.
    c = ctx101()
    acc, rpow = 0, 1
    for v in seq:
        acc = (acc + v * rpow) % c.p
        rpow = rpow * c.r % c.p
    assert acc == fp_of_sequence(FieldContext(101, 7), seq)


def test_fp_split_example():
    c = ctx101()
    fp_b = fp_of_sequence(c, [1, 2, 3])
    fp_a = fp_of_sequence(c, [1])
    suffix = fp_of_sequence(c, [2, 3])
    assert suffix == 23
    # Unrebased, the difference still carries r^1; rebasing divides it out.
    assert (fp_b - fp_a) % 101 == suffix * 7 % 101
    assert pow(7, 99, 101) == c.r_inv == 29
    assert (fp_b - fp_a) * c.r_inv % 101 == suffix


def draw_case(data):
    """A context and a sequence of length 0-300, across the 128-symbol block."""
    bits = data.draw(st.sampled_from([13, 31, 61]), label="bits")
    c = context_new(bits, data.draw(st.integers(0, 2**32), label="seed"))
    n = data.draw(st.integers(0, 300), label="n")
    return c, data.draw(st.lists(st.integers(0, c.p - 1), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fp_split_round_trip(data):
    # Phase Bphi splits without rebasing: for prefix lengths a <= b,
    # phi(S[:b]) - phi(S[:a]) == phi(S[a:b]) * r^a, so it compares the
    # difference with the level target times r^lo.
    c, seq = draw_case(data)
    b = data.draw(st.integers(0, len(seq)), label="b")
    a = data.draw(st.integers(0, b), label="a")
    diff = (fp_of_sequence(c, seq[:b]) - fp_of_sequence(c, seq[:a])) % c.p
    assert diff == fp_of_sequence(c, seq[a:b]) * pow(c.r, a, c.p) % c.p
    # A span of the sequence is read in place, as the level targets are.
    assert fp_of_sequence(c, seq, a, b) == fp_of_sequence(c, seq[a:b])


def test_fp_zero_example():
    c = ctx101()
    fp = fp_of_sequence(c, [1, 2, 3])
    # Zeroing position 1 removes 2 * r^1.
    assert (fp - 2 * 7) % 101 == fp_of_sequence(c, [1, 0, 3]) == 47


def test_fp_zero_identity_and_all():
    c = ctx101()
    seq = [4, 5, 6]
    fp = fp_of_sequence(c, seq)
    removed = sum(v * pow(7, k, 101) for k, v in enumerate(seq))
    # Zeroing no position keeps the value; zeroing all of them leaves the
    # fingerprint of the all-zero sequence.
    assert fp == fp_of_sequence(c, seq)
    assert (fp - removed) % 101 == fp_of_sequence(c, [0, 0, 0]) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fp_zero_round_trip(data):
    # Zeroing a set Z subtracts S[z] * r^z for each z in Z.
    c, seq = draw_case(data)
    zeros = data.draw(st.sets(st.integers(0, len(seq) - 1)) if seq else st.just(set()))
    removed = sum(seq[z] * pow(c.r, z, c.p) for z in zeros)
    zeroed = [0 if k in zeros else v for k, v in enumerate(seq)]
    assert (fp_of_sequence(c, seq) - removed) % c.p == fp_of_sequence(c, zeroed)


def test_collision_bound_mechanism():
    # Two sequences collide exactly when the base lands on a root of their
    # difference polynomial, so a pair built from k distinct roots collides
    # for exactly k of the p-1 possible bases: the |S|/(p-1) bound, exactly.
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
