"""Deterministic instance generators for tests, verification and benchmarks.

All generators take an explicit seed and use an isolated Random instance,
so every instance is reproducible from its parameters alone.  The regimes
mirror what the matchers have to survive: uniform noise, planted full
matches, block-periodic text (dense arithmetic progressions of matches),
and recurrence streams with gaps just past m.  The randomized engine reads
a distance of at least m as a first occurrence, so those recurrences, at
m + 2*sigma + 3, never reach its distance buffer (the `long_gap`
benchmark workload is built from them).
"""

from __future__ import annotations

import random

from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    pattern: list[int]
    text: list[int]
    sigma: int
    kind: str
    seed: int


def random_instance(m: int, n: int, sigma: int, seed: int) -> Instance:
    rng = random.Random(seed)
    return Instance(
        pattern=[rng.randrange(sigma) for _ in range(m)],
        text=[rng.randrange(sigma) for _ in range(n)],
        sigma=sigma,
        kind="random",
        seed=seed,
    )


def planted_instance(
    m: int, n: int, sigma: int, seed: int, plants: int = 2
) -> Instance:
    """Random text with relabelled copies of the pattern planted in it."""
    rng = random.Random(seed)
    pattern = [rng.randrange(sigma) for _ in range(m)]
    text = [rng.randrange(sigma) for _ in range(n)]
    # A plant needs room for the whole pattern; a shorter text gets none.
    for _ in range(plants if n >= m else 0):
        start = rng.randrange(0, n - m + 1)
        # A random bijective relabelling keeps the plant a p-match without
        # making it a literal copy.
        perm = list(range(sigma))
        rng.shuffle(perm)
        text[start : start + m] = [perm[sym] for sym in pattern[:m]]
    return Instance(pattern, text, sigma, "planted", seed)


def periodic_instance(
    m: int, n: int, sigma: int, seed: int, block: int | None = None
) -> Instance:
    """Pattern and text tiled from one random block: matches arrive in
    arithmetic progressions, stressing the compressed queues."""
    rng = random.Random(seed)
    if block is None:
        block = max(2, m // 8)
    b = [rng.randrange(sigma) for _ in range(block)]
    pattern = [b[j % block] for j in range(m)]
    text = [b[j % block] for j in range(n)]
    return Instance(pattern, text, sigma, "periodic", seed)


def long_gap_instance(m: int, n: int, sigma: int, seed: int) -> Instance:
    """Recurrence stream with gaps just past m.

    One filler symbol keeps short distances; every other symbol recurs
    once per round of m + 2*sigma + 3 arrivals, in consecutive bursts, so
    each recurrence carries a predecessor distance larger than every
    ladder length.  That distance is at least m, so the randomized engine
    reads each recurrence as a first occurrence, and none enters its
    distance buffer or zeroing queues.
    """
    rng = random.Random(seed)
    pattern = [rng.randrange(sigma) for _ in range(m)]
    round_len = m + 2 * sigma + 3
    text = []
    while len(text) < n:
        for sym in range(1, sigma):
            text.append(sym)
        while len(text) % round_len:
            text.append(0)
    return Instance(pattern, text[:n], sigma, "long_gap", seed)


_KINDS = {
    "random": random_instance,
    "planted": planted_instance,
    "periodic": periodic_instance,
    "long_gap": long_gap_instance,
}


def make_instance(kind: str, m: int, n: int, sigma: int, seed: int, **kw) -> Instance:
    try:
        builder = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown instance kind {kind!r}") from None
    return builder(m, n, sigma, seed, **kw)
