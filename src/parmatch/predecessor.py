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

Both engines take a stream only as these distances, through one entry,
`feed(preds, out=None)`.  `DenseFrontEnd` gives them `step` and `scan`
over a dense alphabet [0, sigma): a `LastOccurrence` table looks each
symbol's distance up only when the engine asks for it, so an error that
stops the engine leaves the table at the same arrival.  A symbol outside
the alphabet, or one that is not an int (a float such as 1.5, a string),
enters the engine as NEVER, a symbol seen nowhere else, so every later
window is answered as if a fresh symbol stood there; its own verdict is
dropped, and `AlphabetError` names its index.  Once `feed` has taken
distances from elsewhere (the alphabet filter's), the table no longer
describes the stream: it is dropped, and `step` and `scan` raise
`UsageError`.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphabetError, UsageError

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
        exactly once per arrival; a symbol that is not an int in the
        alphabet raises `AlphabetError` and leaves the table as it was.
        """
        try:
            if not 0 <= sym < self.sigma:
                raise AlphabetError(sym, i, self.sigma)
            t = self.table[sym]
        except TypeError:
            # A string fails the comparison, a float such as 1.5 the index.
            raise AlphabetError(sym, i, self.sigma) from None
        self.table[sym] = i
        return i - t if t >= 0 else NEVER

    def preds(self, text, i: int):
        """`step` over `text`, its first symbol at index i + 1, lazily.

        Each distance is looked up when the consumer asks for it, so the
        table never runs ahead of the consumer, and a symbol outside the
        alphabet, or not an int, raises its `AlphabetError` when its
        distance is asked for.
        """
        # `step` written out: a call per arrival would cost more than the
        # lookup itself.
        table = self.table
        sigma = self.sigma
        for sym in text:
            i += 1
            try:
                if not 0 <= sym < sigma:
                    raise AlphabetError(sym, i, sigma)
                t = table[sym]
            except TypeError:
                raise AlphabetError(sym, i, sigma) from None
            table[sym] = i
            yield i - t if t >= 0 else NEVER


_FED = "the matcher is fed predecessor distances: use feed, not step or scan"


class DenseFrontEnd:
    """`step`, `scan` and `feed` of an engine over a dense alphabet.

    The engine holds `tracker` (a `LastOccurrence`) and the index `i` of
    its last arrival.  It takes distances through `_arrive(pv)`, which
    returns whether a match ends at that arrival, and `_run(preds, out)`,
    which appends the indices of the matches ending at the next arrivals
    to `out`.
    """

    __slots__ = ()

    def step(self, sym: int) -> bool:
        """Process one arriving symbol; True iff a full match ends here."""
        tracker = self.tracker
        if tracker is None:
            raise UsageError(_FED)
        try:
            pv = tracker.step(sym, self.i + 1)
        except AlphabetError:
            self._arrive(NEVER)
            raise
        return self._arrive(pv)

    def scan(self, text, out=None) -> list[int]:
        """Match end indices over the next chunk of the stream.

        The same answers and state as `step` per symbol, so consecutive
        calls continue one stream and may be mixed with `step`.  The
        indices are appended to `out` (a new list by default), which is
        returned; when an error stops the chunk, `out` holds the matches
        that ended before it, and the next call goes on from the symbol
        after the error.
        """
        tracker = self.tracker
        if tracker is None:
            raise UsageError(_FED)
        if out is None:
            out = []
        try:
            self._run(tracker.preds(text, self.i), out)
        except AlphabetError:
            self._arrive(NEVER)
            raise
        return out

    def feed(self, preds, out=None) -> list[int]:
        """`scan` for a chunk given as the arrivals' predecessor distances.

        The distances come from elsewhere (`AlphabetFilter.scan_pred`), so
        the last-occurrence table is dropped, and `step` and `scan` refuse
        to run after the first call.
        """
        self.tracker = None
        if out is None:
            out = []
        self._run(preds, out)
        return out
