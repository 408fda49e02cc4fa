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
"""

from __future__ import annotations

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
