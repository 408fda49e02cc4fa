import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parmatch import predecessor
from parmatch.errors import AlphabetError
from parmatch.oracle import _pred, relabelling_pmatch
from parmatch.pattern import _symbol_array
from parmatch.predecessor import NEVER, LastOccurrence, pred_array, pred_string

seqs = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40)


def test_pred_string_known():
    assert pred_string("aababcca") == [0, 1, 0, 2, 2, 0, 1, 4]


def test_pred_string_all_distinct():
    assert pred_string([3, 1, 4, 2]) == [0, 0, 0, 0]


def test_pred_string_unary():
    assert pred_string("aaaa") == [0, 1, 1, 1]


C = predecessor._CHUNK


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 1 << 20),
    st.sampled_from([1, 2, C - 1, C, C + 1, 2 * C + 3]),
    st.sampled_from([1, 3, 8, None]),
    st.integers(0, 2**32),
)
def test_pred_array_equals_oracle_pred(sigma, n, used, seed):
    # Alphabets from unary to 2^20 symbols, so 8-, 16- and 32-bit symbol
    # arrays, and lengths on both sides of the scatter's chunk.  The
    # sequence draws from `used` symbols of the alphabet (all for None), so
    # that a large alphabet also repeats symbols, near and far.
    rng = random.Random(seed)
    symbols = range(sigma)
    if used is not None:
        symbols = rng.sample(symbols, min(sigma, used))
    seq = rng.choices(symbols, k=n)
    assert pred_array(_symbol_array(seq, sigma)) == _pred(seq)


def test_stream_matches_offline():
    tr = LastOccurrence(2)
    vals = [tr.step(s, i) for i, s in enumerate([0, 0, 1, 0])]
    assert [0 if v == NEVER else v for v in vals] == [0, 1, 0, 2]
    assert vals[0] == NEVER and vals[2] == NEVER


def test_stream_first_arrivals_never():
    tr = LastOccurrence(4)
    assert all(tr.step(s, i) == NEVER for i, s in enumerate([0, 1, 2, 3]))


def test_stream_unary():
    tr = LastOccurrence(1)
    vals = [tr.step(0, i) for i in range(5)]
    vals = [0 if v == NEVER else v for v in vals]
    assert vals == [0, 1, 1, 1, 1]


def test_stream_alphabet_violation():
    tr = LastOccurrence(2)
    with pytest.raises(AlphabetError):
        tr.step(2, 0)


@given(seqs)
def test_stream_batch_agreement(seq):
    tr = LastOccurrence(6)
    got = [tr.step(s, i) for i, s in enumerate(seq)]
    got = [0 if v == NEVER else v for v in got]
    assert got == pred_string(seq)


@given(seqs, st.data())
def test_a_chunk_s_distances_are_step_s(seq, data):
    # `preds` looks a chunk up as `step` would, up to its first symbol
    # outside the alphabet, whose AlphabetError it returns.
    head = data.draw(st.integers(0, len(seq)))
    bad = data.draw(st.sampled_from([None, -1, 6, 1.5]))
    chunk = seq[head:]
    if bad is not None:
        chunk = chunk + [bad] + chunk
    stepped = LastOccurrence(6)
    for i, sym in enumerate(seq[:head]):
        stepped.step(sym, i)
    tr = LastOccurrence(6)
    tr.table = list(stepped.table)
    got, err = tr.preds(chunk, head - 1)
    want = []
    for i, sym in enumerate(chunk, head):
        if sym == bad:
            break
        want.append(stepped.step(sym, i))
    assert got.dtype == np.int64 and got.tolist() == want
    assert (err is None) == (bad is None)
    if err is not None:
        assert err.index == head + len(want)
    assert tr.table == stepped.table


def test_window_relative_cases():
    # (global value, offset): further back than the offset, never seen and
    # no predecessor all read as a first occurrence inside the window.
    cases = [((5, 3), 0), ((2, 3), 2), ((NEVER, 100), 0), ((0, 3), 0)]
    got = [v if 0 < v <= j else 0 for (v, j), _ in cases]
    assert got == [want for _, want in cases]
    # The same reading on concrete streams: the window "dea" of "abcdea",
    # and the window "abab" of "ccabab".
    g = pred_string("abcdea")
    assert g[5] == 5 and pred_string("dea")[2] == 0  # 5 > 2: reads as 0
    assert pred_string("ccabab")[5] == pred_string("abab")[3] == 2  # 2 <= 3


@given(seqs, st.data())
def test_window_relative_recovers_window_pred(seq, data):
    start = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
    tr = LastOccurrence(6)
    g = [tr.step(s, i) for i, s in enumerate(seq)]  # global, NEVER for new
    window = seq[start:]
    want = pred_string(window)
    # The engines' rule: a value v at window offset j reads as v if
    # 0 < v <= j, else as a first occurrence.
    got = [v if 0 < v <= j else 0 for j, v in enumerate(g[start:])]
    assert got == want


def test_pmatch_compare_cases():
    # A match of length r extends by one symbol iff the pattern's value at
    # offset r equals the text's global value g read at offset r.
    cases = [
        (0, NEVER, 5, True),
        (0, 3, 5, False),
        (4, 4, 7, True),
        (4, 4, 3, False),  # distance reaches past the window
        (0, 6, 5, True),
        (2, 4, 3, False),
    ]
    for pred_p, g, r, extends in cases:
        assert (pred_p == (g if 0 < g <= r else 0)) is extends
        if pred_p > r:
            continue  # no pattern has such a value; the rule alone is checked
        # The same case as concrete strings, decided by the oracle.
        pattern = list(range(r)) + [r - pred_p if pred_p else r]
        window = [100 + k for k in range(r)]
        if g == NEVER:
            text = window + [-1]
        elif g <= r:
            text = window + [window[r - g]]
        else:
            text = [-1] + [200 + k for k in range(g - r - 1)] + window + [-1]
        assert pred_string(pattern)[r] == pred_p
        assert pred_string(text)[-1] == (0 if g == NEVER else g)
        assert relabelling_pmatch(pattern, text[-(r + 1) :]) is extends


@given(seqs, seqs)
def test_pred_equality_iff_relabelling(a, b):
    # Equal predecessor strings iff an injective relabelling exists.
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert (pred_string(a) == pred_string(b)) == relabelling_pmatch(a, b)


def loop_preds(tracker, text, i):
    """The dense front end's chunk pass as a plain loop: `step` written out
    over `text`, its first symbol at index i + 1, up to the first symbol
    outside the alphabet or not an int.  The reference for
    `LastOccurrence.preds`."""
    table = tracker.table
    sigma = tracker.sigma
    out = []
    for sym in text:
        i += 1
        try:
            if 0 <= sym < sigma:
                t = table[sym]
                table[sym] = i
                out.append(i - t if t >= 0 else NEVER)
                continue
        except TypeError:
            pass
        return out, AlphabetError(sym, i, sigma)
    return out, None


CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "iter": iter,
    # Symbols of kind O: the array pass finds none valid by its kind.
    "objects": lambda piece: np.array(piece, dtype=object),
}


def chunk_of(tracker, piece, k, how):
    """The distances of `piece`, its first symbol at stream index k, up to
    its first bad symbol, and that symbol's error as (index, message)."""
    if how == "loop":
        got, err = loop_preds(tracker, piece, k - 1)
    elif how == "step":
        got, err = [], None
        for sym in piece:
            try:
                got.append(tracker.step(sym, k + len(got)))
            except AlphabetError as e:
                err = e
                break
    else:
        arr, err = tracker.preds(CONTAINERS[how](piece), k - 1)
        assert arr.dtype == np.int64
        got = arr.tolist()
    return got, None if err is None else (err.index, str(err))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 4, 255, 256, 257, 1024, 1 << 20]), st.data())
def test_the_array_pass_equals_the_loop_and_step(sigma, data):
    # A stream cut anywhere, its chunks taken by `preds` from a list, a
    # tuple, an iterator or an object array, or by `step`, with bad symbols
    # anywhere: each chunk's distances, the
    # index of its first bad symbol and the table after it are those of the
    # plain loop and of `step`.  The stream goes on after a bad symbol.
    pool = data.draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=6))
    # Numpy ints and bools are ints to `step`.
    pool += [np.int64(s) for s in pool] + [s == 1 for s in pool if s < 2]
    text = data.draw(st.lists(st.sampled_from(pool), max_size=60))
    bads = [-1, sigma, 256, 2**63, 1.5, 2.0, np.float64(2.0), "1", None]
    for _ in range(data.draw(st.integers(0, 3))):
        text.insert(data.draw(st.integers(0, len(text))), data.draw(st.sampled_from(bads)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=5)))
    pieces = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
    array, loop, stepped = (LastOccurrence(sigma) for _ in range(3))
    k = 0
    for piece in pieces:
        how = data.draw(st.sampled_from(["step", *CONTAINERS]))
        while piece:
            want = chunk_of(stepped, piece, k, "step")
            assert chunk_of(loop, piece, k, "loop") == want
            assert chunk_of(array, piece, k, how) == want, how
            assert array.table == loop.table == stepped.table
            got, err = want
            k += len(got)
            assert err is None or err[0] == k
            piece = piece[len(got) + 1 :] if err else []
            k += err is not None
