"""Recurrence streams at a chosen distance, for tests that load buffers.

The randomized engine reads a distance of at least m as a first
occurrence, so `gen.long_gap_instance`, whose symbols recur at
m + 2*sigma + 3, no longer reaches its distance buffer or zeroing
queues.  `gap_instance` builds the same kind of stream with rounds of
any length: inside (m0, m) its recurrences load both.
"""

import random

from parmatch.gen import Instance


def gap_instance(
    m: int, n: int, sigma: int, seed: int, gap: int, common: int = 1
) -> Instance:
    """`long_gap_instance(m, n, sigma, seed)`'s pattern, and a text of
    identical rounds of `gap` arrivals: symbols common .. sigma-1 in a
    burst, then symbols drawn from [0, common), so every symbol of the
    burst recurs at distance exactly `gap`.  With common = 1 the rest of
    a round is the filler 0, as in `long_gap_instance`; with more, every
    window of the text holds the burst's symbols at the same offsets as
    the window one round later."""
    rng = random.Random(seed)
    pattern = [rng.randrange(sigma) for _ in range(m)]
    round_ = list(range(common, sigma))
    round_ += [rng.randrange(common) for _ in range(gap - len(round_))]
    text = (round_ * (n // gap + 1))[:n]
    return Instance(pattern, text, sigma, "long_gap", seed)
