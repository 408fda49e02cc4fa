"""Near misses: relabelled copies of a pattern prefix whose next symbol
breaks the match.

With nothing deferred, the deterministic core takes a matched length
below `det_matcher.K` in one table lookup, so only a comparison that
fails at K or above runs its shift machinery, which, once entered, goes
on below K until it has caught up.  A near miss of length at least K
makes such a comparison fail.
"""

import random

from parmatch.det_matcher import K
from parmatch.predecessor import pred_string


def near_misses(pattern, text, alphabet, seed, count, top=None, keep=()):
    """`text` with `count` near misses written over it at random places,
    none of which overlaps a window of the pattern's length that starts
    at an index in `keep`.

    Each is a copy of `pattern[:n]`, n in [K, top) (top defaults to the
    pattern's length), under a random injective relabelling into
    `alphabet`, followed by a symbol whose distance differs from the
    pattern's at n: a repeat where the pattern has a first occurrence,
    else a symbol other than the pattern's.
    """
    rng = random.Random(seed)
    alphabet = list(alphabet)
    text = list(text)
    m = len(pattern)
    pred = pred_string(pattern)
    distinct = list(dict.fromkeys(pattern))
    for _ in range(count):
        n = rng.randrange(K, top or m)
        at = rng.randrange(len(text) - n)
        while any(s - n <= at < s + m for s in keep):
            at = rng.randrange(len(text) - n)
        relabel = dict(zip(distinct, rng.sample(alphabet, len(distinct))))
        near = [relabel[x] for x in pattern[:n]]
        want = relabel[pattern[n]]
        near.append(near[-1] if pred[n] == 0 else next(s for s in alphabet if s != want))
        text[at : at + n + 1] = near
    return text
