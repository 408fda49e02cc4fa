"""Compressed FIFO queues of (match position, prefix fingerprint) pairs.

Matches of a ladder prefix inside a bounded stretch of text split into a
few explicit positions plus one arithmetic progression whose common
difference is the prefix's parameterized period.  Along such a
progression the text block appended between consecutive matches carries
identical predecessor values, so consecutive prefix fingerprints differ
by a field value that just picks up a factor r^diff per element:

    fp[k+1] = fp[k] + delta0 * (r^diff)^(k-1)   (elements 1-based)

A progression therefore needs O(1) words no matter how many positions it
covers, and both ends are O(1): the push side verifies each absorbed
fingerprint against the predicted one (a position that breaks the law
starts a fresh segment instead of corrupting the progression), and the
pop side re-derives fingerprints with the same recurrence, so popped
pairs always equal the pushed ones.  A pop advances the progression's
first position by diff, so its last one is next_pos + (cnt - 1) * diff.
"""

from __future__ import annotations

from collections import deque

from .errors import StructuralViolation, UsageError

# Segment layouts (plain lists for speed):
#   explicit:    [pos, fp]
#   progression: [next_pos, cnt, emit_fp, emit_step, tail_fp, tail_step]
# next_pos and emit_fp are the pair the next pop returns, emit_step the
# difference to the fingerprint after it; tail_fp is the last pushed
# fingerprint and tail_step the difference the next absorbed one must show.
_EXPL = 2
_PROG = 6


class MatchQueue:
    """FIFO of match positions for one ladder level."""

    __slots__ = (
        "diff",
        "rpd",
        "p",
        "budget",
        "segs",
        "last_pos",
        "words",
        "law_mismatches",
    )

    def __init__(self, diff: int, rpd: int, p: int, budget: int):
        self.diff = diff
        self.rpd = rpd  # r^diff mod p
        self.p = p
        self.budget = budget
        self.segs: deque = deque()
        self.last_pos = -1
        self.words = 0
        self.law_mismatches = 0

    def __len__(self) -> int:
        n = 0
        for s in self.segs:
            n += 1 if len(s) == _EXPL else s[1]
        return n

    def push(self, pos: int, fp: int) -> None:
        if pos <= self.last_pos:
            raise UsageError(f"push position {pos} not beyond {self.last_pos}")
        self.last_pos = pos
        p = self.p
        segs = self.segs
        if segs:
            tail = segs[-1]
            if len(tail) == _PROG:
                if pos == tail[0] + tail[1] * self.diff:
                    if fp == (tail[4] + tail[5]) % p:
                        tail[1] += 1
                        tail[4] = fp
                        tail[5] = tail[5] * self.rpd % p
                        return
                    self.law_mismatches += 1
            elif pos == tail[0] + self.diff:
                delta0 = (fp - tail[1]) % p
                segs[-1] = [tail[0], 2, tail[1], delta0, fp, delta0 * self.rpd % p]
                self.words += _PROG - _EXPL
                return
        segs.append([pos, fp])
        self.words += _EXPL
        if len(segs) > self.budget:
            raise StructuralViolation(
                f"match queue holds {len(segs)} segments, budget {self.budget}"
            )

    def pop(self):
        """Oldest (position, fingerprint) pair, or None when empty."""
        segs = self.segs
        if not segs:
            return None
        head = segs[0]
        if len(head) == _EXPL:
            segs.popleft()
            self.words -= _EXPL
            return head[0], head[1]
        pos = head[0]
        fp = head[2]
        cnt = head[1] - 1
        if cnt:
            head[0] = pos + self.diff
            head[1] = cnt
            head[2] = (fp + head[3]) % self.p
            head[3] = head[3] * self.rpd % self.p
        else:
            segs.popleft()
            self.words -= _PROG
        return pos, fp
