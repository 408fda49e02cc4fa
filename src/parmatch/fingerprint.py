"""Rabin-Karp fingerprints over a prime field.

The fingerprint of a sequence S of non-negative values less than p is

    phi(S) = sum_{k=0}^{|S|-1} S[k] * r^k  (mod p)

for a prime p and a base r drawn uniformly at random from [1, p-1].
Two distinct equal-length sequences collide with probability at most
|S|/(p-1) over the choice of r.

`fp_of_sequence` evaluates phi during preprocessing, for the per-level
targets of the prefix ladder, and returns the residue as a plain int.  The streaming matcher does its field
arithmetic inline: it keeps the running prefix fingerprint and its own
powers r^i, splits by subtracting two prefix fingerprints without
rebasing (the difference still carries the weight r^lo of its first
position lo, so it is compared with the level target times r^lo), and
zeroes a position z by subtracting its value times r^z.  A FieldContext
is only (p, r, r^-1) and is never changed after construction, so one
context may back any number of matchers.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Iterable

from .errors import ConfigError, UsageError

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_PRIME_BITS = 61

# Symbols per block in `fp_of_sequence`.  On CPython 3.11, blocks of 64-256
# evaluated 2^18 symbols fastest (about 3.5x the one-`%`-per-symbol loop).
_BLOCK = 128

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
        if n % 2 == 0:
            n -= 1
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.p == other.p
            and self.r == other.r
        )

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


def fp_of_sequence(ctx: FieldContext, seq: Iterable[int]) -> int:
    """phi(seq) as a residue in [0, p), evaluated exactly in blocks of
    K = _BLOCK symbols.

    Each block B_b = seq[b*K .. b*K + K - 1] is summed as
    sum_k B_b[k] * r^k with one C-level `sum(map(mul, ...))`, and the
    blocks are combined by Horner's rule in r^K from the last block down:
    phi(seq) = sum_b phi(B_b) * r^(b*K).
    """
    p = ctx.p
    if not isinstance(seq, list):
        seq = list(seq)
    n = len(seq)
    if n and (min(seq) < 0 or max(seq) >= p):
        for v in seq:
            if v >= p or v < 0:
                raise UsageError(f"value {v} outside [0, {p})")
    r = ctx.r
    powers = [1] * _BLOCK
    for k in range(1, _BLOCK):
        powers[k] = powers[k - 1] * r % p
    r_block = powers[-1] * r % p
    acc = 0
    for a in range((n - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        acc = (acc * r_block + sum(map(mul, seq[a : a + _BLOCK], powers))) % p
    return acc
