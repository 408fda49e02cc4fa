"""Online reduction of an arbitrary text alphabet to a dense one.

The matcher works over {0, ..., sigma-1}; real streams rarely do.  For an
all-variable pattern only the equality structure of the last m symbols
matters, and p-matching is alphabet-free: a window matches under any
one-to-one relabelling.  So it suffices to keep the cap = distinct(P)+1
most recently seen distinct symbols on distinct codes of a dense code
space of size cap.  A plain LRU does this in O(1) expected time per
symbol: a recency list ordered by last arrival, keyed by raw symbol.

* a live symbol keeps its code and moves to the recency tail;
* a new symbol takes a fresh code while fewer than cap are in use, and
  the code of the evicted least-recent entry once all are.

With d = distinct(P), the filter keeps every window's p-match verdict:

* a window with at most d distinct raw symbols filters to a window with
  the same predecessor string.  A symbol recurring inside it sees at most
  d - 1 other symbols in between, so it stays among the cap most recent
  and keeps its code.  A symbol entering fresh takes the head's code,
  whose last use lies before the window (else the window would hold
  d + 2 distinct symbols);
* a window with more than d distinct raw symbols keeps more than d
  codes.  If the evicted head's last arrival lies in a window that also
  holds the new symbol, the other d listed symbols arrived after the
  head, so they are in that window too, which then holds at least d + 1
  codes and cannot match.

Each code lives in one [last arrival, code] slot that passes from the
evicted symbol to the new one and keeps its time, so the filter knows
every code's last arrival.  `scan_pred` therefore returns the codes'
predecessor distances, the values a last-occurrence table over the codes
would give, and either engine's `feed` takes them without keeping that
table itself.
"""

from __future__ import annotations

from collections import OrderedDict

from .predecessor import NEVER


class AlphabetFilter:
    """Map raw stream symbols to dense codes, preserving window p-matches."""

    __slots__ = ("cap", "window", "live", "t")

    def __init__(self, pattern_distinct: int, window: int | None = None):
        self.cap = pattern_distinct + 1
        # Unused: recency alone keeps every window's verdict.  Stored
        # because callers pass the pattern length and read it back.
        self.window = window
        # raw -> [last arrival, code], in recency order.  A code's slot is
        # never copied: an evicted symbol hands it, with the code's last
        # arrival in it, to the new symbol.
        self.live: OrderedDict = OrderedDict()
        self.t = -1

    def step(self, raw) -> int:
        """Dense code for the arriving raw symbol."""
        t = self.t + 1
        self.t = t
        live = self.live
        slot = live.get(raw)
        if slot is not None:
            live.move_to_end(raw)
        else:
            # A full list hands its head's slot to the new symbol.
            if len(live) >= self.cap:
                slot = live.popitem(last=False)[1]
            else:
                slot = [t - NEVER, len(live)]
            live[raw] = slot
        slot[0] = t
        return slot[1]

    def scan_pred(self, raws) -> list[int]:
        """Predecessor distances of the codes of the next chunk of raw symbols.

        The same values as `LastOccurrence` run over the codes `step`
        returns: the time since the code's last arrival, which for a new
        symbol is the last arrival of the symbol that held its code, or
        NEVER for a code not used before.  The filter advances as `step`
        advances it, with its state in local variables; `t` is written
        back once, also when a symbol cannot be looked up.
        """
        live = self.live
        get = live.get
        to_tail = live.move_to_end
        pop_head = live.popitem
        cap = self.cap
        out = []
        emit = out.append
        t = self.t
        try:
            for raw in raws:
                t += 1
                slot = get(raw)
                if slot is not None:
                    to_tail(raw)
                else:
                    # A fresh code's first use: its distance is NEVER.
                    n = len(live)
                    slot = pop_head(last=False)[1] if n >= cap else [t - NEVER, n]
                    live[raw] = slot
                emit(t - slot[0])
                slot[0] = t
        finally:
            self.t = t
        return out


def densify_pattern(pattern) -> tuple[list[int], int]:
    """Relabel pattern symbols by first appearance; returns (codes, distinct)."""
    codes: dict = {}
    out = []
    for sym in pattern:
        if sym not in codes:
            codes[sym] = len(codes)
        out.append(codes[sym])
    return out, len(codes)
