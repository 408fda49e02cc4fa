"""Host-speed calibration, normalised timers, and the oracle gate.

The benchmark runs on small shared machines whose speed drifts by up to
1.8x between processes while the CPU stays fully busy (CPU time drifts
with wall time), so neither wall nor CPU time alone is comparable from run
to run.  Every timed region is therefore bracketed by a short, fixed
pure-Python reference loop that shares no code with parmatch, and the
region's wall time is scaled by how fast that loop ran at that moment:

    normalised = measured * (REF_NOMINAL_S / reference_time_now)

Reported times read as seconds on a host that runs the reference loop in
REF_NOMINAL_S.  The reference is interleaved at a grain of tens of
milliseconds; a single calibration at start-up does not cancel the drift.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

_P = (1 << 61) - 1
_REF_SYMS = [(k * 2654435761 >> 7) % 8 for k in range(2048)]
_REF_PATTERN = [(k * 40503 >> 5) % 4 for k in range(6000)]

# Time of one reference loop on the host the bounds were set on (2-core
# x86-64 VM, CPython 3.11) when no other tenant slows it.  Only a scale:
# it cancels in every comparison between two runs of the benchmark.
REF_NOMINAL_S = 0.003


class _Ref:
    """Interpreter work shaped like a matcher step: slot reads and writes,
    list indexing, 61-bit modular products and a short deque."""

    __slots__ = ("i", "pw", "acc", "last", "hist", "q")

    def __init__(self):
        self.i = -1
        self.pw = 1
        self.acc = 0
        self.last = [-1] * 8
        self.hist = [0] * 64
        self.q = deque()

    def step(self, sym: int) -> bool:
        i = self.i + 1
        self.i = i
        pw = self.pw = self.pw * 1234567891 % _P
        t = self.last[sym]
        self.last[sym] = i
        d = i - t if t >= 0 else 0
        acc = self.acc = (self.acc + d * pw) % _P
        self.hist[i & 63] = acc
        q = self.q
        if d > 6:
            q.append((i, d))
            if len(q) > 8:
                q.popleft()
        return acc & 1 == 0


def _ref_build(seq) -> list[int]:
    """Preprocessing-shaped work: a predecessor string and the KMP failure
    table over it, allocating a fresh int per entry."""
    last: dict = {}
    pred = []
    for i, sym in enumerate(seq):
        prev = last.get(sym)
        pred.append(0 if prev is None else i - prev)
        last[sym] = i
    fail = [0] * (len(pred) + 1)
    for r in range(2, len(pred) + 1):
        b = fail[r - 1]
        v = pred[r - 1]
        while b > 0 and (v if v <= b else 0) != pred[b]:
            b = fail[b]
        fail[r] = b + 1
    return fail


def ref_time() -> float:
    """Wall time of one fixed reference loop (about 4 ms).

    It has a streaming half and a preprocessing half: under contention
    from other tenants the two kinds of work slow by different factors,
    and their sum tracks the engines' steps and constructors better than
    either alone.
    """
    step = _Ref().step
    t0 = perf_counter()
    for sym in _REF_SYMS:
        step(sym)
    _ref_build(_REF_PATTERN)
    return perf_counter() - t0


def speed_factor(ref_s: float) -> float:
    """Multiply a wall time measured next to `ref_s` by this."""
    return REF_NOMINAL_S / ref_s


def timed(fn, *args, **kw):
    """Run fn once; return (result, normalised seconds).

    The factor comes from the median of three reference loops just before
    and three just after, so one interrupted loop does not skew it.
    """
    refs = [ref_time() for _ in range(3)]
    t0 = perf_counter()
    out = fn(*args, **kw)
    raw = perf_counter() - t0
    refs += [ref_time() for _ in range(3)]
    return out, raw * speed_factor(statistics.median(refs))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    s = sorted(values)
    k = min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))
    return s[k]


def gate(expected: list[int], got: list[int]) -> int:
    """Failed verdicts: match starts in one list and not the other."""
    return len(set(expected).symmetric_difference(got))


def gate_self_check(expected: list[int], n_starts: int) -> None:
    """The gate must count a deliberately altered match list as failed.

    Drops one true match (or, with none, reports a start that is not one)
    and checks that the gate sees exactly one failure.
    """
    if expected:
        altered = expected[1:]
    else:
        altered = [n_starts // 2]
    if gate(expected, altered) != 1 or gate(expected, list(expected)) != 0:
        raise SystemExit("oracle gate self-check failed: altered list not caught")
