"""Online reduction of an arbitrary text alphabet to a dense one.

The matcher works over {0, ..., sigma-1}; real streams rarely do.  For an
all-variable pattern only the equality structure of the last m symbols
matters, so it suffices to map the (at most cap = distinct(P)+1) most
recently seen distinct symbols injectively onto a dense code space of
size cap.  A recency list ordered by last arrival, a dictionary from raw
symbol to its entry, and a pool of free codes maintain this in O(1)
expected time per symbol:

* a live symbol keeps its code and moves to the recency tail;
* a new symbol takes a free code, or the code of the evicted
  least-recent entry when the list is full;
* the head is additionally dropped when its last occurrence slides out
  of the m-window.  Last occurrences have distinct times, so at most one
  entry expires per arrival and a single lazy head check suffices.

Each code lives in one [last arrival, code] slot that moves between the
list and the free pool and keeps its time there, so the filter knows
every code's last arrival.  `scan_pred` therefore returns the codes'
predecessor distances, the values a last-occurrence table over the codes
would give, and a deterministic matcher takes them without keeping that
table itself.

Windows with at most distinct(P) distinct raw symbols filter to windows
with an identical predecessor string; windows with more distinct symbols
than the pattern cannot match it and keep that property after filtering.
"""

from __future__ import annotations

from collections import OrderedDict

from .predecessor import NEVER


class AlphabetFilter:
    """Map raw stream symbols to dense codes, preserving window p-matches."""

    __slots__ = ("cap", "window", "live", "free", "t")

    def __init__(self, pattern_distinct: int, window: int):
        self.cap = pattern_distinct + 1
        self.window = window
        # raw -> [last arrival, code], in recency order.  A code's slot is
        # never copied: it moves between `live` and the `free` stack with
        # the code's last arrival in it (-1 before its first use).
        self.live: OrderedDict = OrderedDict()
        self.free = [[-1, code] for code in range(self.cap - 1, -1, -1)]
        self.t = -1

    def step(self, raw) -> int:
        """Dense code for the arriving raw symbol."""
        t = self.t + 1
        self.t = t
        live = self.live
        # Lazy expiry: the head is the least recent entry; entry times are
        # distinct, so one check per arrival keeps the list window-clean.
        if live:
            head, slot = next(iter(live.items()))
            if slot[0] <= t - self.window:
                del live[head]
                self.free.append(slot)
        slot = live.get(raw)
        if slot is not None:
            live.move_to_end(raw)
        else:
            # A full list hands its head's slot to the new symbol.
            if len(live) >= self.cap:
                slot = live.popitem(last=False)[1]
            else:
                slot = self.free.pop()
            live[raw] = slot
        slot[0] = t
        return slot[1]

    def scan(self, raws) -> list[int]:
        """Dense codes for the next chunk of raw symbols (`step` per symbol)."""
        return self._scan(raws, False)

    def scan_pred(self, raws) -> list[int]:
        """Predecessor distances of the codes of the next chunk of raw symbols.

        The same values as `LastOccurrence` run over the codes `scan`
        returns: the time since the code's last arrival, which for a new
        symbol is the last arrival of the symbol that held its code, or
        NEVER for a code not used before.  The filter advances as `scan`
        advances it.
        """
        return self._scan(raws, True)

    def _scan(self, raws, pred: bool) -> list[int]:
        """`step` over the chunk with the state in local variables,
        emitting codes or, with `pred`, predecessor distances; `t` is
        written back once, also when a symbol cannot be looked up."""
        live = self.live
        items = live.items
        get = live.get
        to_tail = live.move_to_end
        pop_head = live.popitem
        release = self.free.append
        take = self.free.pop
        cap = self.cap
        window = self.window
        out = []
        emit = out.append
        t = self.t
        try:
            for raw in raws:
                t += 1
                if live:
                    head, slot = next(iter(items()))
                    if slot[0] <= t - window:
                        del live[head]
                        release(slot)
                slot = get(raw)
                if slot is not None:
                    to_tail(raw)
                else:
                    slot = pop_head(last=False)[1] if len(live) >= cap else take()
                    live[raw] = slot
                    if slot[0] < 0:
                        # The code's first use: its distance is NEVER.
                        slot[0] = t - NEVER
                if pred:
                    emit(t - slot[0])
                else:
                    emit(slot[1])
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
