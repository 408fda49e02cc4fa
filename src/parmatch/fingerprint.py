"""Rabin-Karp fingerprints over a prime field, with splitting and zeroing.

The fingerprint of a sequence S of non-negative values less than p is

    phi(S) = sum_{k=0}^{|S|-1} S[k] * r^k  (mod p)

for a prime p and a base r drawn uniformly at random from [1, p-1].
Two distinct equal-length sequences collide with probability at most
|S|/(p-1) over the choice of r.

Two derived operations drive the streaming matcher:

* splitting: from phi(S[0..a]) and phi(S[0..b]) (b > a) and r^-(a+1),
  recover phi(S[a+1..b]) rebased so its first symbol carries r^0;
* zeroing: from phi(S) and, for selected positions z, the value currently
  contributing at z together with r^z, recover the fingerprint of the
  sequence with those positions replaced by 0.  Costs O(|Z|).

A FieldContext also carries a monotone power state (r^i and r^-i at its
clock i), which `advance()` moves by one multiplication per position for
the streaming form `fp_append`.  The matching engines never advance a
context: they read only p, r and r^-1 and keep their own powers, so one
context may back any number of matchers.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Iterable, NamedTuple

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


class Fingerprint(NamedTuple):
    """A field residue together with the number of contributing positions."""

    value: int
    length: int


class ZeroEntry(NamedTuple):
    """One position to zero out: its value and the matching power of r."""

    position: int
    symbol_value: int
    r_pow: int


EMPTY_FP = Fingerprint(0, 0)


class FieldContext:
    """Field parameters plus an incremental power state.

    Only `advance()` mutates the context: it moves both r^clock and
    r^-clock forward by one position.  Everything else is read-only after
    construction, and the engines read nothing but p, r and r_inv.
    """

    __slots__ = ("p", "r", "r_inv", "clock", "r_pow", "r_neg_pow")

    def __init__(self, p: int, r: int):
        if not _is_prime(p):
            raise ConfigError(f"modulus {p} is not prime")
        if not 1 <= r < p:
            raise ConfigError(f"base {r} outside [1, {p})")
        self.p = p
        self.r = r
        self.r_inv = pow(r, p - 2, p)
        self.clock = 0
        self.r_pow = 1
        self.r_neg_pow = 1

    def advance(self) -> None:
        """Move the power state from clock i to i+1."""
        self.clock += 1
        self.r_pow = self.r_pow * self.r % self.p
        self.r_neg_pow = self.r_neg_pow * self.r_inv % self.p

    def pow_r(self, k: int) -> int:
        """r^k mod p for arbitrary k (preprocessing only; not O(1))."""
        if k >= 0:
            return pow(self.r, k, self.p)
        return pow(self.r_inv, -k, self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.p == other.p
            and self.r == other.r
        )

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, r={self.r}, clock={self.clock})"


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


def fp_of_sequence(ctx: FieldContext, seq: Iterable[int]) -> Fingerprint:
    """phi(seq), evaluated exactly in blocks of K = _BLOCK symbols.

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
    return Fingerprint(acc, n)


def fp_append(ctx: FieldContext, fp: Fingerprint, v: int, i: int) -> Fingerprint:
    """Extend phi(S[0..i-1]) with S[i] = v using the current power state.

    Requires the context clock to sit at i; this is the one-multiplication
    streaming form of the fingerprint sum.
    """
    if fp.length != i:
        raise UsageError(f"fingerprint covers {fp.length} positions, expected {i}")
    if ctx.clock != i:
        raise UsageError(f"power state at clock {ctx.clock}, expected {i}")
    if v >= ctx.p or v < 0:
        raise UsageError(f"value {v} outside [0, {ctx.p})")
    return Fingerprint((fp.value + v * ctx.r_pow) % ctx.p, i + 1)


def fp_split(
    ctx: FieldContext, fp_b: Fingerprint, fp_a: Fingerprint, r_neg_pow: int
) -> Fingerprint:
    """phi(S[a+1..b]) from phi(S[0..b]), phi(S[0..a]) and r^-(a+1).

    The difference of the two prefix fingerprints carries the suffix terms
    still weighted by r^(a+1)..r^b; multiplying by r^-(a+1) rebases them
    so the suffix starts at r^0.
    """
    if fp_a.length >= fp_b.length:
        raise UsageError(
            f"split needs a shorter prefix: {fp_a.length} >= {fp_b.length}"
        )
    value = (fp_b.value - fp_a.value) * r_neg_pow % ctx.p
    return Fingerprint(value, fp_b.length - fp_a.length)


def fp_zero(
    ctx: FieldContext,
    fp: Fingerprint,
    zeros: Iterable[ZeroEntry],
    base: int,
    r_neg_base: int | None = None,
) -> Fingerprint:
    """phi(S) with the given positions replaced by 0.

    `base` is the absolute index of the fingerprint's first position; each
    entry's stored r_pow is r^position, so the contribution to remove is
    symbol_value * r^position * r^-base.  Streaming callers pass r^-base
    from their power history; if omitted it is computed by exponentiation
    (fine outside hot paths).
    """
    p = ctx.p
    if r_neg_base is None:
        r_neg_base = pow(ctx.r_inv, base, p)
    removed = 0
    for z in zeros:
        if not base <= z.position < base + fp.length:
            raise UsageError(
                f"zero position {z.position} outside span [{base}, {base + fp.length})"
            )
        removed = (removed + z.symbol_value * z.r_pow) % p
    value = (fp.value - removed * r_neg_base) % p
    return Fingerprint(value, fp.length)
