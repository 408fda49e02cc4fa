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
over a dense alphabet [0, sigma): a `LastOccurrence` table gives the
distances, one symbol at a time for `step`, and for `scan` a chunk's at
once, as an int64 array from one stable sort of its symbols.  Whichever
call made it, a chunk reaches the engine in one form, `_run(arr, out)`:
a new int64 array of distances in [1, NEVER], which the engine may
write in.

`scan` and `feed` each convert a chunk once, and the conversion is the
check that each value is an int (`_ints`).  `bytes` and `bytearray` are
read in place.  For `scan` over at most 256 symbols a list or tuple goes
through `bytes()`, which takes exactly the values with an `__index__` in
[0, 256): ints, bools and numpy ints, and refuses floats, strings and
values out of range.  Any other chunk goes through `np.asarray` with no
dtype (never `bytes()`, which would read an int64 array's 8 bytes per
value as 8 symbols), and only an array of kind `i`, `u` or `b` passes; a
dtype would convert 1.5 to 1 and "2" to 2.  `scan` then checks the
range with one max (and min).  When its conversion or range check
fails, a plain scan with `step`'s test finds the first bad symbol, and
the distances stop before it: the symbol is rejected once the engine
has run the symbols before it.  `feed` reads a distance below 1 or
above NEVER as NEVER; when its conversion fails, it reads the chunk one
value at a time through `operator.index`, so a float or a str is
refused before any arrival runs.

A symbol outside the alphabet, or one that is not an int (a float such
as 1.5, a string), enters the engine as NEVER, a symbol seen nowhere
else, so every later window is answered as if a fresh symbol stood
there; its own verdict is dropped, `AlphabetError` names its index, and
the stream goes on.  An error out of the engine instead ends the stream
(see `errors.Stopped`), so the table, which has taken the whole chunk,
is never read again.  Once `feed` has taken distances from elsewhere
(the alphabet filter's), the table no longer describes the stream: it
is dropped, and `step` and `scan` raise `UsageError`.
"""

from __future__ import annotations

from operator import index

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

    def preds(self, text, i: int) -> tuple[np.ndarray, AlphabetError | None]:
        """`step` over `text`, its first symbol at index i + 1.

        Returns the distances up to the first symbol outside the alphabet,
        or not an int, as an int64 array, and that symbol's
        `AlphabetError` (None when there is none); the table has taken the
        symbols before it.
        """
        sigma = self.sigma
        a = _symbols(text, sigma)
        bad = None
        if a is None:
            # A plain scan with `step`'s test finds the first bad symbol.
            good = []
            for sym in text:
                try:
                    if 0 <= sym < sigma:
                        good.append(index(sym))
                        continue
                except TypeError:
                    # A string fails the comparison, a float such as 1.5
                    # the index.
                    pass
                bad = AlphabetError(sym, i + 1 + len(good), sigma)
                break
            a = np.array(good, np.int64)
        n = len(a)
        out = np.empty(n, np.int64)
        if not n:
            return out, bad
        # A stable sort by symbol puts each symbol's occurrences next to
        # each other in increasing position, as in `_pred_gaps`, so a
        # symbol's distances in the chunk are the differences of its run.
        # The sort is numpy's radix sort of 8-bit keys, or of 16-bit
        # digits, least significant first (`lexsort`'s last key is its
        # primary one).
        if sigma <= 256:
            keys = (a.astype(np.uint8, copy=False),)
        else:
            bits = (sigma - 1).bit_length()
            keys = [(a >> s).astype(np.uint16) for s in range(0, bits, 16)]
        order = np.lexsort(keys)
        srt = a[order]
        starts = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
        out[order[1:]] = np.diff(order)
        # Each symbol's first arrival in the chunk reads the table, and its
        # last is written there.
        heads = order[starts]
        syms = srt[starts].tolist()
        table = self.table
        last = np.array([table[s] for s in syms], np.int64)
        out[heads] = np.where(last >= 0, heads + (i + 1) - last, NEVER)
        tails = order[np.r_[starts[1:], n] - 1] + (i + 1)
        for s, t in zip(syms, tails.tolist()):
            table[s] = t
        return out, bad


def _symbols(text, sigma: int) -> np.ndarray | None:
    """A chunk's symbols as a 1-D integer array, or None unless each is an
    int in [0, sigma)."""
    a = _ints(text, sigma <= 256)
    if a is not None and len(a) and (a.max() >= sigma or a.min() < 0):
        return None
    return a


def _ints(x, small: bool = False) -> np.ndarray | None:
    """`x` as a 1-D array of kind `i`, `u` or `b`, converted as the module
    docstring says, or None when it does not convert to one.  With
    `small`, a list or tuple goes through `bytes()`."""
    try:
        if isinstance(x, (bytes, bytearray)):
            a = np.frombuffer(x, np.uint8)
        elif small and isinstance(x, (list, tuple)):
            a = np.frombuffer(bytes(x), np.uint8)
        else:
            a = np.asarray(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return a if a.ndim == 1 and a.dtype.kind in "iub" else None


def _distances(preds) -> np.ndarray:
    """Fed distances as a new int64 array, one below 1 or above NEVER read
    as NEVER.  A chunk that is not all ints is read one value at a time
    through `operator.index`, which refuses a float or a str with
    `TypeError` (before any arrival runs) and takes an int past int64 as
    it is, so that it too becomes NEVER.  A uint64 past int64 wraps below
    1 in the conversion, and so becomes NEVER as well."""
    a = _ints(preds)
    if a is None:
        return np.array(
            [v if 0 < v <= NEVER else NEVER for v in map(index, preds)], np.int64
        )
    a = a.astype(np.int64)
    a[(a < 1) | (a > NEVER)] = NEVER
    return a


_FED = "the matcher is fed predecessor distances: use feed, not step or scan"


class DenseFrontEnd:
    """`step`, `scan` and `feed` of an engine over a dense alphabet.

    The engine holds `tracker` (a `LastOccurrence`) and the index `i` of
    its last arrival.  It takes distances through `_arrive(pv)`, which
    returns whether a match ends at that arrival, and `_run(arr, out)`,
    which appends the indices of the matches ending at the next arrivals
    to `out`: `arr` is a new int64 array of their distances, each in [1,
    NEVER], which the engine may write in.
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
        that ended before it.  After an `AlphabetError` the next call goes
        on from the symbol after it; any other error ends the stream.
        """
        tracker = self.tracker
        if tracker is None:
            raise UsageError(_FED)
        if out is None:
            out = []
        arr, bad = tracker.preds(text, self.i)
        self._run(arr, out)
        if bad is not None:
            self._arrive(NEVER)
            raise bad
        return out

    def feed(self, preds, out=None) -> list[int]:
        """`scan` for a chunk given as the arrivals' predecessor distances.

        The distances come from elsewhere (`AlphabetFilter.scan_pred`), so
        the last-occurrence table is dropped, and `step` and `scan` refuse
        to run after the first call.  The whole chunk is read before its
        first arrival runs: a distance below 1 or above NEVER is a first
        occurrence, and one that is not an int (a float, a str) raises
        `TypeError` with the matcher as it was.
        """
        if out is None:
            out = []
        self._run(_distances(preds), out)
        self.tracker = None
        return out
