import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from parmatch import cli
from parmatch.alphabet_filter import AlphabetFilter
from parmatch.cli import _COMMANDS, build_parser, main
from parmatch.errors import AlphabetError, StructuralViolation
from parmatch.gen import make_instance
from parmatch.oracle import naive_all_matches
from parmatch.stream_matcher import StreamMatcher


class Reads:
    """Standard input that returns the given pieces, one per read."""

    def __init__(self, pieces):
        self.pieces = list(pieces)
        self.empty = self.pieces[0][:0]
        self.buffer = self

    def read(self, size=-1):
        return self.pieces.pop(0) if self.pieces else self.empty


def pieces_of(data, size):
    return [data[k : k + size] for k in range(0, len(data), size)]


def run_cli(argv, stdin_text=None, stdin_bytes=None, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    try:
        sys.stdout, sys.stderr = out, err
        if stdin is not None:
            sys.stdin = stdin
        elif stdin_bytes is not None:
            sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes))
        elif stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, content):
    f = tmp_path / name
    f.write_text(content)
    return str(f)


def test_match_known_example(tmp_path):
    pat = write(tmp_path, "p.txt", "1 2 2 3 1\n")
    txt = write(tmp_path, "t.txt", "2 4 4 3 2\n")
    code, out, err = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 0
    assert out == "0\n"


def test_match_empty_text(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1")
    txt = write(tmp_path, "t.txt", "")
    code, out, _ = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 0 and out == ""


def test_match_stdin_and_unbuffered(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1")
    code, out, _ = run_cli(
        ["match", "--pattern", pat, "--text", "-", "--unbuffered"],
        stdin_text="0 0 1 0 1",
    )
    assert code == 0
    assert out == "1\n2\n3\n"


def test_match_modes_agree(tmp_path):
    import random

    rng = random.Random(1)
    pat = write(tmp_path, "p.txt", " ".join(str(rng.randrange(2)) for _ in range(300)))
    txt = write(tmp_path, "t.txt", " ".join(str(rng.randrange(2)) for _ in range(3000)))
    _, auto_out, _ = run_cli(["match", "--pattern", pat, "--text", txt, "--mode", "auto"])
    _, det_out, _ = run_cli(["match", "--pattern", pat, "--text", txt, "--mode", "det"])
    assert auto_out == det_out


def test_match_stats_on_stderr(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1 0")
    txt = write(tmp_path, "t.txt", "0 1 0 1 0")
    code, out, err = run_cli(["match", "--pattern", pat, "--text", txt, "--stats"])
    assert code == 0
    assert "mode=det\n" in err
    assert "matches=3" in err
    assert "peak_live_words=" in err


def test_match_alphabet_violation_exit_2(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1")
    txt = write(tmp_path, "t.txt", "0 9 0")
    code, out, err = run_cli(
        ["match", "--pattern", pat, "--text", txt, "--alphabet-size", "2"]
    )
    assert code == 2
    assert "index 1" in err


@pytest.mark.parametrize(
    "pattern, flags, where",
    [
        ("0 1 5 1", ["--alphabet-size", "3"], "symbol 5 at 2 outside [0, 3)"),
        ("abc", ["--raw", "--alphabet-size", "98"], "symbol 98 at 1 outside [0, 98)"),
    ],
    ids=["tokens", "raw"],
)
def test_match_pattern_symbol_outside_the_alphabet_exit_2(tmp_path, pattern, flags, where):
    # A pattern symbol outside the declared alphabet is an input error, as
    # a text symbol outside it is.
    pat = write(tmp_path, "p.txt", pattern)
    txt = write(tmp_path, "t.txt", "0 1 0")
    code, out, err = run_cli(["match", "--pattern", pat, "--text", txt, *flags])
    assert (code, out) == (2, "")
    assert err == f"input error: pattern {where}\n"


def test_match_bad_token_exit_2(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1")
    txt = write(tmp_path, "t.txt", "0 x 1")
    code, _, err = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 2


@pytest.mark.parametrize("token", ["+5", "1_0", "-0", "\u0663"])
def test_tokens_int_reads_but_are_not_digits_exit_2(tmp_path, token):
    # int() reads these as 5, 10, 0 and 3, which would merge two distinct
    # tokens into one symbol: "+5 1_0 5" would match the pattern "1 2 1".
    pat = write(tmp_path, "p.txt", "1 2 1")
    txt = write(tmp_path, "t.txt", f"5 10 {token} 5")
    code, out, err = run_cli(["match", "--pattern", pat, "--text", txt])
    assert (code, out) == (2, "")
    assert err == f"input error: token {token!r} at position 2 is not in ASCII digits\n"


def test_unicode_whitespace_read_keeps_every_token(tmp_path):
    # A read that is not ASCII takes the token-by-token path, which must
    # still yield every token of the read when none is bad.
    rng = random.Random(3)
    pattern = [7, 3, 7, 7, 12]
    text = [rng.choice([3, 7, 12, 40]) for _ in range(400)]
    text[150:155] = [40, 12, 40, 40, 3]
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    spaces = [" ", "\u2003", "\u3000", "\n"]
    body = "".join(str(x) + rng.choice(spaces) for x in text)
    code, out, _ = run_cli(
        ["match", "--pattern", pat, "--text", "-"], stdin=Reads(pieces_of(body, 101))
    )
    want = naive_all_matches(pattern, text)
    assert want and code == 0
    assert out == "".join(f"{s}\n" for s in want)


def test_match_missing_file_exit_1(tmp_path):
    pat = write(tmp_path, "p.txt", "0 1")
    code, _, _ = run_cli(["match", "--pattern", pat, "--text", str(tmp_path / "nope")])
    assert code == 1


def test_help_names_every_subcommand():
    # argparse prints the module docstring as the description, so the
    # commands it lists must be the ones the parser takes.
    help_text = " ".join(build_parser().format_help().split())
    listed = help_text.split("Command-line interface: ", 1)[1].split(".", 1)[0]
    assert listed.split(", ") == list(_COMMANDS) == ["match", "verify", "bench", "gen"]


def test_usage_error_exit_1():
    code, _, err = run_cli(["match"])
    assert code == 1


def test_mode_rand_ineligible_exit_1(tmp_path):
    pat = write(tmp_path, "p.txt", "0 0 0 0")
    txt = write(tmp_path, "t.txt", "0 0 0 0 0")
    code, _, err = run_cli(["match", "--pattern", pat, "--text", txt, "--mode", "rand"])
    assert code == 1
    assert "error" in err


def test_match_raw_mode(tmp_path):
    pat = tmp_path / "p.bin"
    pat.write_bytes(b"ab")
    txt = tmp_path / "t.bin"
    txt.write_bytes(b"aabab")
    code, out, _ = run_cli(["match", "--pattern", str(pat), "--text", str(txt), "--raw"])
    assert code == 0
    assert out == "1\n2\n3\n"


def test_match_general_alphabet(tmp_path):
    pat = write(tmp_path, "p.txt", "1000000 2000000 2000000 3000000 1000000")
    txt = write(tmp_path, "t.txt", "7 9 9 3000000 7")
    code, out, _ = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 0
    assert out == "0\n"


def test_gen_then_match_round_trip(tmp_path):
    pat = str(tmp_path / "p.txt")
    txt = str(tmp_path / "t.txt")
    code, _, _ = run_cli(
        [
            "gen", "--kind", "planted", "--m", "40", "--n", "400",
            "--sigma", "4", "--seed", "9",
            "--out-pattern", pat, "--out-text", txt,
        ]
    )
    assert code == 0
    code, out, _ = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 0
    from parmatch.oracle import naive_all_matches

    want = naive_all_matches(
        [int(x) for x in open(pat).read().split()],
        [int(x) for x in open(txt).read().split()],
    )
    assert [int(line) for line in out.splitlines()] == want


@pytest.mark.parametrize("kind", ["random", "planted", "periodic", "long_gap"])
@pytest.mark.parametrize("n", [0, 10, 63, 64, 100])
def test_instance_text_has_n_symbols(kind, n):
    inst = make_instance(kind, 64, n, 4, seed=1)
    assert len(inst.text) == n
    if kind == "planted" and n >= 64:
        assert naive_all_matches(inst.pattern, inst.text)


def test_verify_clean_exit_0():
    code, out, _ = run_cli(["verify", "--trials", "30", "--max-m", "60", "--seed", "4"])
    assert code == 0
    assert "discrepancies=0" in out
    assert "structural_violations=0" in out


def test_verify_counts_violations_and_discrepancies(monkeypatch):
    # verify builds a new matcher for each trial, so an error ends only
    # that trial's stream.  An engine whose first matcher raises a
    # structural violation and whose second reports a match past the
    # stream's end is counted once for each, and verify exits 3, the
    # structural code, not 1, which a bad argument gets.
    built = []

    class Faulty:
        def __init__(self, *args, **kw):
            self.sm = StreamMatcher(*args, **kw)
            built.append(self.sm)

        def scan(self, text):
            if len(built) == 1:
                raise StructuralViolation("injected")
            ends = self.sm.scan(text)
            return ends + [len(text)] if len(built) == 2 else ends

    monkeypatch.setattr(cli, "StreamMatcher", Faulty)
    code, out, _ = run_cli(["verify", "--trials", "6", "--max-m", "30", "--seed", "4"])
    assert code == 3
    assert out == "trials=6\ndiscrepancies=1\nstructural_violations=1\n"
    assert len(set(map(id, built))) == 6


@pytest.mark.parametrize(
    "argv, why",
    [
        (["bench", "--sigma", "0"], "expected an integer >= 1, got 0"),
        (["bench", "--m", "64", "--n", "-3"], "expected an integer >= 0, got -3"),
        (
            ["gen", "--kind", "planted", "--period", "4", "--m", "8", "--n", "16"],
            "--period applies to --kind periodic, not planted",
        ),
        (["verify", "--trials", "0"], "expected an integer >= 1, got 0"),
    ],
)
def test_a_rejected_argument_is_a_usage_error_in_process(tmp_path, argv, why):
    if argv[0] == "gen":
        argv = argv + ["--out-pattern", str(tmp_path / "p")]
        argv = argv + ["--out-text", str(tmp_path / "t")]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and why in err
    assert not (tmp_path / "p").exists()


def test_bench_emits_metrics():
    code, out, _ = run_cli(["bench", "--m", "600", "--sigma", "2", "--seed", "2"])
    assert code == 0
    keys = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert keys["mode"] in ("rand", "det")
    assert int(keys["peak_live_words"]) > 0
    assert float(keys["throughput_sym_per_s"]) > 0
    assert float(keys["setup_s"]) > 0


@pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\u2003"])
def test_token_split_at_read_boundary_on_any_whitespace(tmp_path, space):
    # A read that ends in whitespace other than " \t\r\n" must still end
    # its last token: "12", "34", "5" are three distinct tokens, not two.
    pat = write(tmp_path, "p.txt", "0 1 2")
    code, out, err = run_cli(
        ["match", "--pattern", pat, "--text", "-"], stdin=Reads(["12" + space, "34 5"])
    )
    assert (code, out, err) == (0, "0\n", "")


@pytest.mark.parametrize(
    "bad, flags, message",
    [
        (["x"], [], "token 'x' at position 250 is not an integer"),
        (["-3"], [], "token '-3' at position 250 is negative"),
        (["x"], ["--alphabet-size", "2"], "token 'x' at position 250 is not an integer"),
        (["2", "x"], ["--alphabet-size", "2"], str(AlphabetError(2, 250, 2))),
        # Tokens that int() reads but that are not plain ASCII digits.
        (["+1"], [], "token '+1' at position 250 is not in ASCII digits"),
        (["1_0"], [], "token '1_0' at position 250 is not in ASCII digits"),
        (["-0"], [], "token '-0' at position 250 is not in ASCII digits"),
        (["\u0661"], [], "token '\u0661' at position 250 is not in ASCII digits"),
    ],
)
def test_error_in_a_later_read_keeps_earlier_matches(tmp_path, bad, flags, message):
    # The bad symbol sits in the sixth of seven reads; every match that
    # ends before it is printed, and the message names its stream index.
    rng = random.Random(5)
    pattern = [0, 1, 1, 0]
    text = [rng.randrange(2) for _ in range(300)]
    tokens = [str(x) for x in text]
    tokens[250:251] = bad
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    code, out, err = run_cli(
        ["match", "--pattern", pat, "--text", "-", *flags],
        stdin=Reads(pieces_of(" ".join(tokens), 97)),
    )
    want = naive_all_matches(pattern, text[:250])
    assert want and code == 2
    assert out == "".join(f"{s}\n" for s in want)
    assert err == f"input error: {message}\n"


def test_engine_error_inside_a_read_keeps_earlier_matches(tmp_path):
    # The randomized engine's front end rejects symbol 4 at index 9000,
    # in the middle of the only read; the matches it reported before that
    # are printed.
    rng = random.Random(6)
    pattern = [rng.randrange(3) for _ in range(600)]
    text = [rng.randrange(3) for _ in range(12000)]
    for at in range(50, 12000 - 600, 1400):
        text[at : at + 600] = [(x + 1) % 3 for x in pattern]
    text[9000] = 4
    want = naive_all_matches(pattern, text[:9000])
    assert len(want) >= 3
    assert StreamMatcher(pattern, 4, mode="rand").mode == "rand"
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    txt = write(tmp_path, "t.txt", " ".join(map(str, text)))
    code, out, err = run_cli(
        ["match", "--pattern", pat, "--text", txt, "--alphabet-size", "4",
         "--mode", "rand"]
    )
    assert (code, err) == (2, f"input error: {AlphabetError(4, 9000, 4)}\n")
    assert out == "".join(f"{s}\n" for s in want)


def test_structural_violation_exit_3_keeps_earlier_matches(tmp_path, monkeypatch):
    # No valid stream breaches a bound, so the alphabet filter's distances
    # are made to raise five arrivals after the second plant's match,
    # inside the only read, while the engine runs that read's chunk:
    # exit 3, and the matches reported before it are printed.
    rng = random.Random(7)
    pattern = [rng.randrange(3) for _ in range(40)]
    text = [rng.randrange(5) for _ in range(2000)]
    for at in (100, 700, 1500):
        perm = rng.sample(range(5), 5)
        text[at : at + 40] = [perm[x] for x in pattern]
    want = naive_all_matches(pattern, text)
    assert want == [100, 700, 1500]
    fed = 0
    scan_pred = AlphabetFilter.scan_pred

    def breaking(filt, raws):
        def preds():
            nonlocal fed
            for pv in scan_pred(filt, raws):
                fed += 1
                if fed == 700 + 40 + 5:
                    raise StructuralViolation("injected")
                yield pv

        return preds()

    monkeypatch.setattr(AlphabetFilter, "scan_pred", breaking)
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    txt = write(tmp_path, "t.txt", " ".join(map(str, text)))
    code, out, err = run_cli(["match", "--pattern", pat, "--text", txt])
    assert code == 3
    assert err.startswith("structural violation: ")
    assert out == "100\n700\n"


def test_empty_pattern_file_exit_2(tmp_path):
    pat = write(tmp_path, "p.txt", " \n")
    txt = write(tmp_path, "t.txt", "1 2 3\n")
    assert run_cli(["match", "--pattern", pat, "--text", txt]) == (
        2, "", "input error: empty pattern\n"
    )


def test_gen_periodic_text_is_tiled_with_the_given_period(tmp_path):
    pat = str(tmp_path / "p.txt")
    txt = str(tmp_path / "t.txt")
    code, _, _ = run_cli(
        [
            "gen", "--kind", "periodic", "--period", "7", "--m", "30",
            "--n", "100", "--sigma", "4", "--seed", "3",
            "--out-pattern", pat, "--out-text", txt,
        ]
    )
    assert code == 0
    pattern = [int(x) for x in open(pat).read().split()]
    text = [int(x) for x in open(txt).read().split()]
    assert len(pattern) == 30 and len(text) == 100
    assert text[:30] == pattern
    assert all(text[j] == text[j % 7] for j in range(100))
    # Not the default block of m // 8 = 3 symbols.
    assert any(text[j] != text[j % 3] for j in range(100))


def test_pattern_distance_beyond_the_prime_is_a_usage_error(tmp_path):
    # Symbol 3 recurs 1495 positions later, past the 7-bit prime 127, in
    # a rand-eligible pattern of 3000 symbols: the randomized route
    # refuses a pattern longer than the prime when forced, and auto mode
    # takes it to the deterministic engine, as --mode det does.
    rng = random.Random(3)
    pattern = [rng.randrange(3) for _ in range(3000)]
    pattern[5] = pattern[1500] = 3
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    txt = write(tmp_path, "t.txt", " ".join(map(str, pattern)))
    args = ["match", "--pattern", pat, "--text", txt, "--prime-bits", "7"]
    code, out, err = run_cli(args + ["--mode", "rand"])
    assert (code, out) == (1, "")
    assert err == "error: pattern length 3000 exceeds prime 127\n"
    assert run_cli(args + ["--mode", "det"]) == (0, "0\n", "")
    assert run_cli(args) == (0, "0\n", "")


def test_raw_bytes_take_a_prime_below_the_alphabet(tmp_path):
    # --raw reads 256 byte values, above the 7-bit prime 127; the pattern
    # routes to det, which uses no prime.
    pat = tmp_path / "p.bin"
    pat.write_bytes(b"abba")
    txt = tmp_path / "t.bin"
    txt.write_bytes(b"xyyxzzx\xff")
    args = ["match", "--pattern", str(pat), "--text", str(txt), "--raw"]
    assert run_cli(args + ["--prime-bits", "7"]) == (0, "0\n3\n", "")


def test_multi_read_token_stream_through_filter(tmp_path):
    rng = random.Random(8)
    ids = rng.sample(range(10**9), 6)
    pattern = [rng.choice(ids[:3]) for _ in range(30)]
    text = [rng.choice(ids) for _ in range(3000)]
    for at in (100, 1700, 2950):
        relabel = dict(zip(ids[:3], rng.sample(ids, 3)))
        text[at : at + 30] = [relabel[x] for x in pattern]
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    code, out, _ = run_cli(
        ["match", "--pattern", pat, "--text", "-"],
        stdin=Reads(pieces_of(" ".join(map(str, text)), 4093)),
    )
    want = naive_all_matches(pattern, text)
    assert len(want) >= 3 and code == 0
    assert out == "".join(f"{s}\n" for s in want)


def test_multi_read_raw_stream(tmp_path):
    rng = random.Random(9)
    pattern = bytes(rng.choice(b"abc") for _ in range(20))
    text = bytearray(rng.choice(b"abcd") for _ in range(5000))
    for at in (10, 2500, 4980):
        text[at : at + 20] = pattern.translate(bytes.maketrans(b"abc", b"dab"))
    pat = tmp_path / "p.bin"
    pat.write_bytes(pattern)
    code, out, _ = run_cli(
        ["match", "--pattern", str(pat), "--text", "-", "--raw"],
        stdin=Reads(pieces_of(bytes(text), 999)),
    )
    want = naive_all_matches(list(pattern), list(text))
    assert len(want) >= 3 and code == 0
    assert out == "".join(f"{s}\n" for s in want)


def test_text_file_longer_than_three_reads(tmp_path):
    # Real 64 KiB reads from a file; tokens of mixed width straddle them.
    rng = random.Random(10)
    pattern = [rng.randrange(4) * 1000003 for _ in range(40)]
    text = [rng.randrange(5) * 1000003 + rng.choice((0, 7)) for _ in range(40000)]
    for at in (5, 20000, 39960):
        text[at : at + 40] = [x + 1 for x in pattern]
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    data = " ".join(map(str, text)) + "\n"
    assert len(data) > 3 * 65536
    txt = write(tmp_path, "t.txt", data)
    code, out, _ = run_cli(["match", "--pattern", pat, "--text", txt])
    want = naive_all_matches(pattern, text)
    assert len(want) >= 3 and code == 0
    assert out == "".join(f"{s}\n" for s in want)


@pytest.mark.parametrize("mode", ["rand", "det"])
def test_raw_file_longer_than_three_reads(tmp_path, mode):
    # Real 64 KiB reads of bytes, each scanned as one chunk, with a
    # relabelled plant across each of the first four read boundaries.
    rng = random.Random(11)
    # Over 256 symbols the rand route needs m > 14 delta = 60,928 here.
    m = 66000
    pattern = bytes(rng.choice(b"abcdef") for _ in range(m))
    text = bytearray(rng.choice(b"abcdefgh") for _ in range(4 * 65536 + 9000))
    for at in (65536 - 100, 3 * 65536 - 1):
        text[at : at + m] = pattern.translate(bytes.maketrans(b"abcdef", b"hgfedc"))
    pat = tmp_path / "p.bin"
    pat.write_bytes(pattern)
    txt = tmp_path / "t.bin"
    txt.write_bytes(text)
    code, out, err = run_cli(
        ["match", "--pattern", str(pat), "--text", str(txt), "--raw", "--mode", mode,
         "--stats"]
    )
    want = naive_all_matches(list(pattern), list(text))
    assert len(want) >= 2 and code == 0
    assert out == "".join(f"{s}\n" for s in want)
    assert f"mode={mode}\narrivals={len(text)}\n" in err


def zipf_token_stream(m, distinct, n, seed, plants=5):
    """Zipf token IDs over a wide vocabulary, with relabelled plants of an
    m-token pattern over `distinct` IDs; popular tokens are evicted from
    the filter and come back all the time."""
    rng = random.Random(seed)
    vocab = rng.sample(range(2**40), 500)
    text = rng.choices(vocab, [1 / (k + 1) for k in range(len(vocab))], k=n)
    ids = rng.sample(vocab, distinct)
    pattern = ids + [rng.choice(ids) for _ in range(m - distinct)]
    for slot in rng.sample(range(n // m), plants):
        relabel = dict(zip(ids, rng.sample(vocab, distinct)))
        text[slot * m : (slot + 1) * m] = [relabel[x] for x in pattern]
    return pattern, text


@pytest.mark.parametrize(
    "m, distinct, mode, engine",
    [(64, 8, "auto", "det"), (64, 8, "det", "det"), (600, 3, "rand", "rand"),
     (600, 3, "det", "det")],
)
def test_zipf_tokens_through_the_filter(tmp_path, m, distinct, mode, engine):
    # The det engine takes the filter's predecessor distances, the rand
    # engine its codes; both against the oracle on the raw tokens, over
    # more than three 64 KiB reads of a file.
    pattern, text = zipf_token_stream(m, distinct, 30000, seed=m + len(mode))
    pat = write(tmp_path, "p.txt", " ".join(map(str, pattern)))
    data = " ".join(map(str, text)) + "\n"
    assert len(data) > 3 * 65536
    txt = write(tmp_path, "t.txt", data)
    code, out, err = run_cli(
        ["match", "--pattern", pat, "--text", txt, "--mode", mode, "--stats"]
    )
    want = naive_all_matches(pattern, text)
    assert len(want) >= 5 and code == 0
    assert f"mode={engine}\n" in err
    assert out == "".join(f"{s}\n" for s in want)


def run_module(argv):
    """`python -m parmatch` in a child process, parmatch taken from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "parmatch", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_python_m_parmatch(tmp_path):
    pat = write(tmp_path, "p.txt", "1 2 2 3 1\n")
    txt = write(tmp_path, "t.txt", "2 4 4 3 2\n7 9 9 3 7\n")
    done = run_module(["match", "--pattern", pat, "--text", txt])
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n5\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--kind", "bogus", "--m", "64"],
        ["bench", "--sigma", "0"],
        ["verify", "--sigma", "0", "--trials", "1"],
        ["verify", "--max-m", "0"],
        ["gen", "--m", "8", "--n", "16", "--sigma", "0"],
        ["gen", "--kind", "periodic", "--period", "0", "--m", "8", "--n", "16"],
        ["gen", "--kind", "planted", "--period", "4", "--m", "8", "--n", "16"],
        ["gen", "--prime-bits", "31", "--m", "8", "--n", "16"],
        ["bench", "--m", "64", "--n", "-3"],
        ["match", "--pattern", "p", "--text", "t", "--general-alphabet"],
        ["match", "--pattern", "p", "--text", "t", "--alphabet-size", "0"],
    ],
)
def test_bad_count_or_kind_is_a_usage_error(tmp_path, argv):
    if argv[0] == "gen":
        argv = argv + ["--out-pattern", str(tmp_path / "p")]
        argv = argv + ["--out-text", str(tmp_path / "t")]
    done = run_module(argv)
    assert done.returncode == 1
    assert done.stderr.startswith("usage error: ")
    assert "Traceback" not in done.stderr
