"""Rabin-Karp fingerprints over a prime field.

The fingerprint of a sequence S of non-negative values less than p is

    phi(S) = sum_{k=0}^{|S|-1} S[k] * r^k  (mod p)

for a prime p and a base r drawn uniformly at random from [1, p-1].
Two distinct equal-length sequences collide with probability at most
|S|/(p-1) over the choice of r.

`fp_of_sequence` evaluates phi during preprocessing, for the per-level
targets of the prefix ladder, and returns the residue as a plain int.  It
is a numpy kernel: int64 matrix products sum blocks of values times
powers of r, split into limbs small enough that every sum is exact for
any value in [0, p) and any prime width from 3 to 62 bits, and Python
ints combine the blocks.  It reads the sequence in fixed-size chunks, so
a fingerprint of a long stretch holds no temporary that grows with it.

The streaming matcher does its field arithmetic inline, over blocks of
32 arrivals: it keeps each block's sum of values times r^0 .. r^31 (from
`power_table`, reduced only when read) and, for each recent block, the
prefix fingerprint before it and r^(its first index), so one product
turns a history entry back into a prefix fingerprint.  It splits by
subtracting two prefix fingerprints without rebasing (the difference
still carries the weight r^lo of its first position lo, so it is compared
with the level target times r^lo), and zeroes a position z by subtracting
its value times r^z.  A FieldContext is only (p, r, r^-1) and is never
changed after construction; each randomized matcher builds its own from
a prime width and a seed.
"""

from __future__ import annotations

import random
from array import array
from operator import index
from typing import Iterable

import numpy as np

from .errors import ConfigError, UsageError

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_PRIME_BITS = 61

# Values per block in `fp_of_sequence`: one row of an int64 matrix
# product.  A power r^k < 2^62 is split into three 21-bit limbs and a value
# into 31-bit limbs, so a block's sum of limb products stays below
# 256 * 2^31 * 2^21 = 2^60: 256 is the largest exact block.
_BLOCK = 256
_LIMB = 21
_VALUE_LIMB = 31
# Values per chunk: the kernel's temporaries are a few words per value of
# one chunk.  On CPython 3.11 and numpy 2.4 (2-core x86 VM), 2^18 values
# below 2^16 took about 5 ms, against 28 ms for the pure-Python block loop
# this kernel replaced; converting the values from Python ints costs more
# than the products.
_CHUNK = 16 * _BLOCK

_prime_cache: dict[int, int] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_for_bits(bits: int) -> int:
    """Largest prime that fits in `bits` bits (fixed per width).

    At the Mersenne widths (13, 17, 19, 31, 61) this lands exactly on
    2^bits - 1.
    """
    if bits < 3 or bits > 62:
        raise ConfigError(f"prime width {bits} outside supported range [3, 62]")
    p = _prime_cache.get(bits)
    if p is None:
        n = (1 << bits) - 1
        while not _is_prime(n):
            n -= 2
        _prime_cache[bits] = p = n
    return p


class FieldContext:
    """Field parameters: the prime p, the base r and its inverse r^-1."""

    __slots__ = ("p", "r", "r_inv")

    def __init__(self, p: int, r: int):
        if not _is_prime(p):
            raise ConfigError(f"modulus {p} is not prime")
        if not 1 <= r < p:
            raise ConfigError(f"base {r} outside [1, {p})")
        self.p = p
        self.r = r
        self.r_inv = pow(r, p - 2, p)

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, r={self.r})"


def context_new(prime_bits: int = DEFAULT_PRIME_BITS, seed: int = 0) -> FieldContext:
    """Build a context with the fixed prime of the requested width and a
    base drawn from a generator seeded with `seed`.

    Deterministic given (prime_bits, seed).  Widths well below 16 bits are
    accepted for testing but give no useful collision guarantee; whether p
    exceeds the alphabet is checked where a matcher is built.
    """
    p = prime_for_bits(prime_bits)
    r = random.Random(seed).randrange(1, p)
    return FieldContext(p, r)


def power_table(ctx: FieldContext, k: int) -> list[int]:
    """[r^0, r^1, ..., r^k] as residues."""
    p = ctx.p
    r = ctx.r
    powers = [1] * (k + 1)
    for j in range(1, k + 1):
        powers[j] = powers[j - 1] * r % p
    return powers


def fp_of_sequence(
    ctx: FieldContext, seq: Iterable[int], start: int = 0, stop: int | None = None
) -> int:
    """phi(seq[start:stop]) as a residue in [0, p), evaluated exactly.

    The slice is read in chunks of _CHUNK values and never copied whole.
    Each block B_b of K = _BLOCK values is summed as sum_k B_b[k] * r^k
    by int64 matrix products over limbs of the values and of the powers
    r^0 .. r^(K-1); the blocks of a chunk are combined by Horner's rule in
    r^K, and the chunks by their weights r^(chunk offset).

    Raises UsageError naming the first value that is not an integer in
    [0, p).
    """
    p = ctx.p
    if not isinstance(seq, list):
        seq = list(seq)
    span = range(len(seq))[start:stop]
    powers = power_table(ctx, _BLOCK)
    r_block = powers.pop()
    r_chunk = pow(r_block, _CHUNK // _BLOCK, p)
    pw = np.array(powers, dtype=np.int64)
    limbs = [(pw >> k) & ((1 << _LIMB) - 1) for k in range(0, 3 * _LIMB, _LIMB)]
    acc = 0
    weight = 1  # r^(offset of the chunk in the slice)
    for a in range(span.start, span.stop, _CHUNK):
        h = _chunk_fp(seq[a : min(a + _CHUNK, span.stop)], p, limbs, r_block)
        acc = (acc + h * weight) % p
        weight = weight * r_chunk % p
    return acc


def _chunk_fp(chunk: list, p: int, limbs: list[np.ndarray], r_block: int) -> int:
    """phi(chunk), padding the chunk (a fresh slice) to whole blocks in
    place; its temporaries are freed on return."""
    chunk += [0] * (-len(chunk) % _BLOCK)
    v, top = _chunk_values(chunk, p)
    v = v.reshape(-1, _BLOCK)
    if top >> _VALUE_LIMB:
        low = _block_sums(v & ((1 << _VALUE_LIMB) - 1), limbs)
        high = _block_sums(v >> _VALUE_LIMB, limbs)
        sums = [lo + (hi << _VALUE_LIMB) for lo, hi in zip(low, high)]
    else:
        sums = _block_sums(v, limbs)
    h = 0
    for block in reversed(sums):
        h = (h * r_block + block) % p
    return h


def _block_sums(v: np.ndarray, limbs: list[np.ndarray]) -> list[int]:
    """sum_k v[b, k] * r^k for each row b of v, whose values are below
    2^31: one exact int64 product per limb of the powers, joined as ints."""
    s0, s1, s2 = ((v @ limb).tolist() for limb in limbs)
    return [a + (b << _LIMB) + (c << 2 * _LIMB) for a, b, c in zip(s0, s1, s2)]


def _chunk_values(chunk: list, p: int) -> tuple[np.ndarray, int]:
    """chunk as int64, and its largest value.  Raises UsageError naming
    its first value that is not an integer in [0, p)."""
    try:
        v = np.frombuffer(array("Q", chunk), np.uint64)  # no negative value
    except (TypeError, OverflowError):
        v = None
    top = None if v is None else int(np.maximum.reduce(v))
    if top is None or top >= p:
        for x in chunk:
            try:
                ok = 0 <= index(x) < p
            except TypeError:
                raise UsageError(f"value {x!r} is not an integer") from None
            if not ok:
                raise UsageError(f"value {x} outside [0, {p})")
    return v.view(np.int64), top
