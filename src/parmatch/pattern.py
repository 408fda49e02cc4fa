"""Pattern preprocessing: prefix periods, compressed tables, prefix ladder.

Everything the two matchers need from the pattern is computed here, once,
and is immutable afterwards:

* the parameterized period of every prefix (via a KMP-style failure
  construction over predecessor values, cross-checked against brute force
  in the tests);
* the run-length encoding of those periods (the period is non-decreasing
  in the prefix length, so equal-period intervals partition [1, m]);
* the O(rho)-word encoding of pred(P): per residue class mod rho the
  column is a block of zeros followed by a single positive constant;
* the list of first occurrences (positions with pred == 0);
* the routing decision, and for the randomized matcher the prefix
  ladder P_0..P_s.

A profile holds no field values.  The fingerprints of the second halves
of the ladder prefixes depend on the randomized matcher's FieldContext,
so that matcher computes them with `level_fingerprints` once the pattern
has routed to it; a pattern routed to the deterministic engine never
needs a context.

The period run table, the compressed pred(P) and the first occurrences
are read only by the deterministic engine, so a profile does not hold
them: each `DetCore` builds them from the profile's periods and pred,
once each (the standalone deterministic matcher, forced det mode, and
phase A of the randomized matcher on the ladder base minus its last
symbol, whose profile is cut from the pattern's: the prefix periods and
pred of a prefix are prefixes of the pattern's).  A randomized matcher's
main profile never has them built.

Preprocessing may use O(m) memory; only streaming-phase state is
space-bounded, so matchers keep references to the compressed tables but
never to the full period or predecessor arrays.

The data-parallel passes run as numpy kernels: the symbol check and
pred(P) (`predecessor.pred_array`) and the level fingerprints
(`fingerprint.fp_of_sequence`).  The KMP loop stays sequential Python
over the pred list.  What a profile keeps is Python ints and lists.

Temporaries are bounded.  The predecessor stage peaks at its symbol
array, the sort's index array and a 4-byte result, at most 14 bytes a
position for alphabets up to 2^16, below the 16 of the pred and period
lists that follow, and once the period list exists no step holds a
temporary that grows with m.  So the peak of `build_profile` is its own
pred and period lists plus a fixed slack.  `level_fingerprints` adds no
more: it reads the pred list in fixed-size chunks and never copies a
level.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice
from operator import index

import numpy as np

from .errors import StructuralViolation, UsageError
from .fingerprint import FieldContext, fp_of_sequence
from .predecessor import pred_array, pred_string


def ceil_log2(m: int) -> int:
    """Ceiling of log2 with a floor of 1, so the slack never degenerates."""
    return max(1, (m - 1).bit_length())


def compute_prefix_pperiods(pattern, pred: list[int] | None = None) -> list[int]:
    """Parameterized period of every prefix; entry [r] is for length r.

    Index 0 is unused.  Built from the parameterized failure function:
    the longest proper border of P[0..r-1] under p-matching, extended one
    position at a time exactly as in classic KMP but comparing
    window-relative predecessor values.  `pred` is pred_string(pattern)
    when the caller already has it.
    """
    m = len(pattern)
    if m == 0:
        raise UsageError("empty pattern")
    pp = pred_string(pattern) if pred is None else pred
    # The longest proper border of the length-b prefix is b - periods[b],
    # so the period table is the only O(m) list the construction needs.
    periods = [0] * (m + 1)
    periods[1] = 1
    b = 0  # longest proper p-border of the previous prefix
    for r, v in enumerate(islice(pp, 1, None), 2):
        # v is the prefix's last predecessor value; read in the window of
        # the length-b border it is v when v <= b, else 0 (v >= 0 here).
        while b > 0 and (v if v <= b else 0) != pp[b]:
            b -= periods[b]
        # Extending at b == 0 always succeeds: two single symbols p-match,
        # so every prefix of length >= 2 has a border of at least 1.
        b += 1
        periods[r] = r - b
    return periods


@dataclass(frozen=True)
class CompressedPred:
    """pred(P) in O(rho) words: per residue j, zeros for the first ks[j]
    rows of the column, the constant cs[j] afterwards."""

    rho: int
    ks: list[int]
    cs: list[int]


def build_compressed_pred(pattern, rho: int, pred=None) -> CompressedPred:
    """Compress pred(P) given the pattern's parameterized period.

    The zeros-then-constant column shape is guaranteed when rho really is
    the period; a violation therefore indicates a wrong rho and raises.
    """
    if pred is None:
        pred = pred_string(pattern)
    ks = [0] * rho
    cs = [0] * rho  # 0 until the column's constant is seen; constants are > 0
    for i, v in enumerate(pred):
        j = i % rho
        c = cs[j]
        if c == 0:
            if v == 0:
                ks[j] += 1
            else:
                cs[j] = v
        elif v != c:
            raise StructuralViolation(
                f"residue {j}: pred column not zeros-then-constant "
                f"({v} after {c}); rho={rho} is not the period"
            )
    return CompressedPred(rho=rho, ks=ks, cs=cs)


def build_run_table(periods: list[int]) -> list[tuple[int, int, int]]:
    """Equal-period intervals of prefix lengths, ascending.

    Entry k is (period, lo, hi): every prefix length in [lo, hi] has this
    parameterized period.  Intervals partition [1, m] and period values
    strictly increase run to run.
    """
    m = len(periods) - 1
    runs: list[tuple[int, int, int]] = []
    lo = 1
    for r in range(2, m + 1):
        if periods[r] != periods[lo]:
            if periods[r] < periods[lo]:
                raise StructuralViolation("prefix periods must be non-decreasing")
            runs.append((periods[lo], lo, r - 1))
            lo = r
    runs.append((periods[lo], lo, m))
    return runs


def build_first_occurrences(pred: list[int]) -> list[int]:
    """Positions whose predecessor value is 0, ascending; 0 always included."""
    return [j for j, v in enumerate(pred) if v == 0]


@dataclass(frozen=True)
class PrefixLadder:
    """Geometric prefix lengths for the randomized matcher.

    lengths[0] is the shortest prefix whose period exceeds 3*delta;
    intermediate lengths double; the last is m - 4*delta.  mode is
    "rand" when the ladder exists, "det" when the pattern routes to the
    deterministic matcher (with the reason recorded).
    """

    delta: int
    mode: str
    reason: str = ""
    lengths: list[int] = field(default_factory=list)

    @property
    def s(self) -> int:
        return len(self.lengths) - 1


def build_ladder(
    pattern,
    sigma: int,
    ctx: FieldContext | None,
    *,
    periods: list[int],
    pred: list[int],
):
    """Build the prefix ladder, or decide the deterministic fallback.

    Returns (ladder, level fingerprints or None); the fingerprints are
    computed only for a randomized ladder and a context.
    Fallback triggers when m <= 14*delta, when the whole pattern's period
    is at most 3*delta, and in the corner where the shortest qualifying
    prefix sits too close to the end of the pattern for the ladder gaps
    to stay at least 3*delta.
    """
    m = len(pattern)
    delta = sigma * ceil_log2(m)

    def fallback(reason: str):
        return PrefixLadder(delta=delta, mode="det", reason=reason), None

    if m <= 14 * delta:
        return fallback(f"m={m} <= 14*delta={14 * delta}")
    if periods[m] <= 3 * delta:
        return fallback(f"period {periods[m]} <= 3*delta={3 * delta}")
    # Shortest prefix with period above the slack threshold.
    m0 = next(r for r in range(1, m + 1) if periods[r] > 3 * delta)
    if m0 <= m // 2:
        lengths = [m0]
        while lengths[-1] * 2 <= m // 2:
            lengths.append(lengths[-1] * 2)
        lengths.append(m - 4 * delta)
    elif m0 <= m - 7 * delta:
        # Degenerate ladder: the qualifying prefix is past the midpoint,
        # so the doubling sequence is empty and the final prefix is its
        # sole successor.
        lengths = [m0, m - 4 * delta]
    else:
        return fallback(
            f"shortest high-period prefix m0={m0} leaves a gap below 3*delta"
        )
    ladder = PrefixLadder(delta=delta, mode="rand", lengths=lengths)
    _check_ladder(ladder, m, periods)
    return ladder, None if ctx is None else level_fingerprints(ctx, lengths, pred)


def _check_ladder(ladder: PrefixLadder, m: int, periods: list[int]) -> None:
    lens = ladder.lengths
    d = ladder.delta
    if periods[lens[0]] <= 3 * d:
        raise StructuralViolation("ladder base period too small")
    if lens[0] > 1 and periods[lens[0] - 1] > 3 * d:
        raise StructuralViolation("ladder base is not the shortest prefix")
    if lens[-1] != m - 4 * d:
        raise StructuralViolation("ladder must end at m - 4*delta")
    for a, b in zip(lens, lens[1:]):
        if b - a < 3 * d:
            raise StructuralViolation(f"ladder gap {b - a} below 3*delta={3 * d}")
    if len(lens) >= 2 and lens[-2] > m // 2:
        if len(lens) != 2:
            raise StructuralViolation("oversized intermediate ladder level")


def level_fingerprints(
    ctx: FieldContext, lengths: list[int], pred: list[int]
) -> list[int]:
    """The ladder's level targets: entry l (1-based; entry 0 is 0) is the
    fingerprint of pred(P)[m_(l-1) .. m_l - 1] rebased to r^0, as a
    residue."""
    return [0] + [fp_of_sequence(ctx, pred, a, b) for a, b in zip(lengths, lengths[1:])]


@dataclass(frozen=True)
class PatternProfile:
    """Everything preprocessing produces, bundled.

    The full period and predecessor arrays are preprocessing artifacts;
    matchers only hold the compressed pieces.  Those pieces serve only the
    deterministic engine, so a `DetCore` builds them, in O(m), from
    `periods` and `pred`, and the profile keeps no copy.  `ladder` is None
    for the prefix profile the randomized matcher cuts for phase A, which
    is never routed.
    """

    m: int
    sigma: int
    periods: list[int]
    pred: list[int]
    ladder: PrefixLadder | None

    @property
    def rho(self) -> int:
        return self.periods[self.m]


# array typecodes of unsigned ints, narrowest first, with their bounds.
_SYMBOL_CODES = [(code, 1 << 8 * array(code).itemsize) for code in "BHIQ"]


def _symbol_array(pattern, sigma: int) -> np.ndarray:
    """The pattern as an array of the narrowest unsigned ints that hold
    sigma - 1.

    Raises UsageError naming the first symbol that is not an integer
    (bool is one) in [0, sigma).
    """
    code = next((c for c, bound in _SYMBOL_CODES if sigma <= bound), "Q")
    # array() reads bytes as raw machine words, so only a list goes in as is.
    src = pattern if isinstance(pattern, list) else iter(pattern)
    try:
        sym = np.frombuffer(array(code, src), dtype=code)
    except (TypeError, OverflowError):
        sym = None
    if sym is not None and np.maximum.reduce(sym) < sigma:
        return sym
    for j, x in enumerate(pattern):
        try:
            v = index(x)
        except TypeError:
            raise UsageError(f"pattern symbol {x!r} at {j} is not an integer") from None
        if not 0 <= v < sigma:
            raise UsageError(f"pattern symbol {x} at {j} outside [0, {sigma})")
    raise UsageError(f"pattern symbols must be below 2**64 (alphabet size {sigma})")


def build_profile(pattern, sigma: int) -> PatternProfile:
    m = len(pattern)
    if m == 0:
        raise UsageError("empty pattern")
    pred = pred_array(_symbol_array(pattern, sigma))
    periods = compute_prefix_pperiods(pattern, pred)
    ladder, _ = build_ladder(pattern, sigma, None, periods=periods, pred=pred)
    return PatternProfile(m=m, sigma=sigma, periods=periods, pred=pred, ladder=ladder)
