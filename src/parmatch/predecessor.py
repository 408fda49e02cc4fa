"""Predecessor strings and the streaming last-occurrence tracker.

pred(S)[j] is the distance back to the previous occurrence of S[j] in S,
or 0 when there is none.  Two equal-length strings parameterize-match
(one is an injective relabelling of the other) exactly when their
predecessor strings are equal, which is what lets every comparison in
this package operate on distances instead of raw symbols.

Streaming convention: a symbol never seen before is carried internally
as the distance NEVER (effectively +infinity), because the comparison
rule "the pattern expects a first occurrence and the text's previous
occurrence is out of the window" must also cover "the text symbol has no
previous occurrence at all".  The engines read a global value v at
window offset j as `v if 0 < v <= j else 0`, which maps NEVER, like any
distance reaching past the window, to the offline first-occurrence 0.

`pred_string` is the definition, for any hashable symbols.  `pred_array`
computes the same list from an array of integer symbols with numpy, which
is how a pattern is preprocessed.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphabetError

# Larger than any real distance in any supported stream; compares as +inf.
NEVER = 1 << 62


def pred_string(seq) -> list[int]:
    """Offline predecessor string, never-seen rendered as 0."""
    last: dict = {}
    out = []
    for i, sym in enumerate(seq):
        prev = last.get(sym)
        out.append(0 if prev is None else i - prev)
        last[sym] = i
    return out


# Positions per step of `pred_array`'s scatter, which bounds its
# temporaries to a few words per position of one step.
_CHUNK = 1 << 12


def pred_array(sym: np.ndarray) -> list[int]:
    """pred_string(sym) for a 1-D array of integer symbols.

    A stable sort by symbol puts the occurrences of each symbol next to
    each other in increasing position, so a position's predecessor is the
    position sorted just before it when that one holds the same symbol.
    The cost is that of the sort, whatever the alphabet size.
    """
    return _pred_gaps(sym).tolist()


def _pred_gaps(sym: np.ndarray) -> np.ndarray:
    """pred(sym) in 4 bytes per position.  Besides it and the sort's index
    array, which is freed on return, it holds O(_CHUNK) words."""
    m = len(sym)
    order = sym.argsort(kind="stable")
    pred = np.zeros(m, np.int32 if m <= 1 << 31 else np.int64)
    for a in range(1, m, _CHUNK):
        cur = order[a : a + _CHUNK]
        prev = order[a - 1 : a - 1 + len(cur)]
        pred[cur] = np.where(sym[cur] == sym[prev], cur - prev, 0)
    return pred


class LastOccurrence:
    """Dense-alphabet tracker: most recent index of every symbol."""

    __slots__ = ("sigma", "table")

    def __init__(self, sigma: int):
        self.sigma = sigma
        self.table = [-1] * sigma

    def step(self, sym: int, i: int) -> int:
        """Global predecessor distance of the symbol arriving at index i.

        Returns NEVER for a first occurrence.  Updates the table, so call
        exactly once per arrival.
        """
        if not 0 <= sym < self.sigma:
            raise AlphabetError(sym, i, self.sigma)
        t = self.table[sym]
        self.table[sym] = i
        return i - t if t >= 0 else NEVER
