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

Windows with at most distinct(P) distinct raw symbols filter to windows
with an identical predecessor string; windows with more distinct symbols
than the pattern cannot match it and keep that property after filtering.
"""

from __future__ import annotations

from collections import OrderedDict


class AlphabetFilter:
    """Map raw stream symbols to dense codes, preserving window p-matches."""

    __slots__ = ("cap", "window", "live", "free", "t")

    def __init__(self, pattern_distinct: int, window: int):
        self.cap = pattern_distinct + 1
        self.window = window
        self.live: OrderedDict = OrderedDict()  # raw -> [time, code], recency order
        self.free = list(range(self.cap - 1, -1, -1))
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
                self.free.append(slot[1])
        slot = live.get(raw)
        if slot is not None:
            slot[0] = t
            live.move_to_end(raw)
            return slot[1]
        if len(live) >= self.cap:
            _, old = live.popitem(last=False)
            self.free.append(old[1])
        code = self.free.pop()
        live[raw] = [t, code]
        return code

    def scan(self, raws) -> list[int]:
        """Dense codes for the next chunk of raw symbols.

        `step` over the chunk with the state in local variables; `t` is
        written back once, also when a symbol cannot be looked up.
        """
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
                        release(slot[1])
                slot = get(raw)
                if slot is not None:
                    slot[0] = t
                    to_tail(raw)
                    emit(slot[1])
                    continue
                if len(live) >= cap:
                    release(pop_head(last=False)[1][1])
                code = take()
                live[raw] = [t, code]
                emit(code)
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
