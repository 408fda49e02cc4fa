import pytest
from hypothesis import given, strategies as st

from parmatch.errors import AlphabetError
from parmatch.oracle import relabelling_pmatch
from parmatch.predecessor import (
    NEVER,
    LastOccurrence,
    pmatch_compare,
    pred_string,
    render,
    window_relative,
)

seqs = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40)


def test_pred_string_known():
    assert pred_string("aababcca") == [0, 1, 0, 2, 2, 0, 1, 4]


def test_pred_string_all_distinct():
    assert pred_string([3, 1, 4, 2]) == [0, 0, 0, 0]


def test_pred_string_unary():
    assert pred_string("aaaa") == [0, 1, 1, 1]


def test_stream_matches_offline():
    tr = LastOccurrence(2)
    vals = [tr.step(s, i) for i, s in enumerate([0, 0, 1, 0])]
    assert [render(v) for v in vals] == [0, 1, 0, 2]
    assert vals[0] == NEVER and vals[2] == NEVER


def test_stream_first_arrivals_never():
    tr = LastOccurrence(4)
    assert all(tr.step(s, i) == NEVER for i, s in enumerate([0, 1, 2, 3]))


def test_stream_unary():
    tr = LastOccurrence(1)
    vals = [render(tr.step(0, i)) for i in range(5)]
    assert vals == [0, 1, 1, 1, 1]


def test_stream_alphabet_violation():
    tr = LastOccurrence(2)
    with pytest.raises(AlphabetError):
        tr.step(2, 0)


@given(seqs)
def test_stream_batch_agreement(seq):
    tr = LastOccurrence(6)
    got = [render(tr.step(s, i)) for i, s in enumerate(seq)]
    assert got == pred_string(seq)


def test_window_relative_cases():
    assert window_relative(5, 3) == 0
    assert window_relative(2, 3) == 2
    assert window_relative(NEVER, 100) == 0
    assert window_relative(0, 3) == 0


@given(seqs, st.data())
def test_window_relative_recovers_window_pred(seq, data):
    start = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
    g = pred_string(seq)
    window = seq[start:]
    want = pred_string(window)
    got = [window_relative(g[start + j], j) for j in range(len(window))]
    assert got == want


def test_pmatch_compare_cases():
    assert pmatch_compare(0, NEVER, 5) is True
    assert pmatch_compare(0, 3, 5) is False
    assert pmatch_compare(4, 4, 7) is True
    assert pmatch_compare(4, 4, 3) is False  # distance reaches past the window
    assert pmatch_compare(0, 6, 5) is True


@given(seqs, seqs)
def test_pred_equality_iff_relabelling(a, b):
    # Equal predecessor strings iff an injective relabelling exists.
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert (pred_string(a) == pred_string(b)) == relabelling_pmatch(a, b)
