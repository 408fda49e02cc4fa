import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

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
    # [next_pos, cnt, emit_fp, emit_step, tail_fp, tail_step]; a pop
    # advances the first three and emit_step, the tail stays.
    q = make_queue()
    fps = law_fps(101, 7, 3, 11, 29, 4)
    for k, fp in enumerate(fps):
        q.push(100 + 3 * k, fp)
    assert len(q.segs) == 1
    rpd = pow(7, 3, 101)
    tail = [fps[-1], 29 * rpd**3 % 101]
    assert q.segs[0] == [100, 4, 11, 29] + tail
    assert q.words == 6 and len(q) == 4
    assert q.law_mismatches == 0
    assert q.pop() == (100, 11)
    assert q.segs[0] == [103, 3, fps[1], 29 * rpd % 101] + tail
    assert q.words == 6 and len(q) == 3


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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from([101, 8191, P61]),
    st.data(),
    st.lists(st.sampled_from(["pop", "law", "break", "gap"]), max_size=120),
)
def test_queue_equals_a_plain_deque(diff, p, data, ops):
    # Pops interleaved with pushes that keep the law at gap diff, break it
    # at gap diff, or use another gap, against a deque of the pushed pairs.
    r = data.draw(st.integers(1, p - 1), label="r")
    rpd = pow(r, diff, p)
    q = MatchQueue(diff=diff, rpd=rpd, p=p, budget=10**6)
    model = deque()
    pos, fp, step = -1, 0, None
    mismatches = 0
    for op in ops:
        if op == "pop":
            assert q.pop() == (model.popleft() if model else None)
        else:
            gap = diff
            if op == "gap":
                gap = data.draw(st.integers(1, 3 * diff).filter(lambda g: g != diff))
            if op == "gap" or step is None:
                new_fp = data.draw(st.integers(0, p - 1), label="fp")
            elif op == "law":
                new_fp = (fp + step) % p
            else:
                new_fp = (fp + step + data.draw(st.integers(1, p - 1))) % p
            tail = q.segs[-1] if q.segs else None
            on_prog = tail is not None and len(tail) == 6
            on_prog = on_prog and pos + gap == tail[0] + tail[1] * diff
            segs_before = len(q.segs)
            q.push(pos + gap, new_fp)
            model.append((pos + gap, new_fp))
            if on_prog and op == "law":
                assert len(q.segs) == segs_before
            if on_prog and op == "break":
                mismatches += 1
            # The difference the next law-keeping push at gap diff adds.
            step = (new_fp - fp) * rpd % p if gap == diff and pos >= 0 else None
            pos, fp = pos + gap, new_fp
        assert len(q) == len(model)
        assert q.words == sum(2 if len(s) == 2 else 6 for s in q.segs)
        assert q.law_mismatches == mismatches
    while model:
        assert q.pop() == model.popleft()
    assert q.pop() is None and q.words == 0
