import random

import pytest

from parmatch.errors import StructuralViolation, UsageError
from parmatch.match_queue import MatchQueue

P61 = (1 << 61) - 1


def make_queue(diff=3, r=7, p=101, budget=50):
    return MatchQueue(diff=diff, rpd=pow(r, diff, p), p=p, budget=budget)


def law_fps(p, r, diff, start_fp, delta0, count):
    """Fingerprints following the progression derivation law."""
    rpd = pow(r, diff, p)
    fps = [start_fp]
    step = delta0
    for _ in range(count - 1):
        fps.append((fps[-1] + step) % p)
        step = step * rpd % p
    return fps


def test_progression_forms():
    q = make_queue()
    fps = law_fps(101, 7, 3, 11, 29, 4)
    for k, fp in enumerate(fps):
        q.push(100 + 3 * k, fp)
    assert len(q.segs) == 1
    seg = q.segs[0]
    assert len(seg) == 9 and seg[1] == 4
    assert q.law_mismatches == 0


def test_non_extending_gap_two_segments():
    q = make_queue(diff=3)
    q.push(5, 1)
    q.push(11, 2)  # gap 6 = 2*diff: not an extension
    assert len(q.segs) == 2
    assert all(len(s) == 2 for s in q.segs)


def test_pop_replays_pushed_pairs():
    q = make_queue()
    fps = law_fps(101, 7, 3, 42, 17, 6)
    pushed = [(100 + 3 * k, fp) for k, fp in enumerate(fps)]
    for pos, fp in pushed:
        q.push(pos, fp)
    got = [q.pop() for _ in range(len(pushed))]
    assert got == pushed
    assert q.pop() is None


def test_pop_empty():
    assert make_queue().pop() is None


def test_single_round_trip():
    q = make_queue()
    q.push(9, 77)
    assert q.pop() == (9, 77)


def test_interleaved_push_pop():
    rng = random.Random(5)
    q = MatchQueue(diff=4, rpd=pow(3, 4, P61), p=P61, budget=100)
    pushed = []
    popped = []
    pos = 0
    fp = 12345
    delta0 = rng.randrange(P61)
    step = delta0
    for _ in range(300):
        if rng.random() < 0.6:
            pushed.append((pos, fp))
            q.push(pos, fp)
            # keep the law most of the time; occasionally break the chain
            if rng.random() < 0.1:
                pos += 8
                fp = rng.randrange(P61)
                step = delta0 = rng.randrange(P61)
            else:
                pos += 4
                fp = (fp + step) % P61
                step = step * q.rpd % P61
        else:
            got = q.pop()
            if got is not None:
                popped.append(got)
    while (got := q.pop()) is not None:
        popped.append(got)
    assert popped == pushed


def test_law_mismatch_starts_new_segment():
    q = make_queue()
    q.push(0, 10)
    q.push(3, 20)
    q.push(6, 99)  # exact gap but wrong fingerprint
    assert q.law_mismatches == 1
    assert [q.pop() for _ in range(3)] == [(0, 10), (3, 20), (6, 99)]


def test_monotonic_positions_required():
    q = make_queue()
    q.push(10, 1)
    with pytest.raises(UsageError):
        q.push(10, 2)


def test_budget_violation_raises():
    q = make_queue(budget=3)
    with pytest.raises(StructuralViolation):
        for k in range(10):
            q.push(7 * k, k)  # gap 7 never extends diff 3
