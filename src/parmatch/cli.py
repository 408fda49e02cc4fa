"""Command-line interface: match, verify, bench, gen.

Exit codes: 0 success, 1 usage/configuration error, 2 input or alphabet
error, 3 structural violation inside the engine.
"""

from __future__ import annotations

import argparse
import sys
import time

from .alphabet_filter import AlphabetFilter, densify_pattern
from .errors import AlphabetError, ConfigError, StructuralViolation, UsageError
from .fingerprint import DEFAULT_PRIME_BITS
from .gen import make_instance
from .oracle import naive_all_matches
from .stream_matcher import StreamMatcher

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_STRUCTURAL = 3

_KINDS = ("random", "planted", "periodic", "long_gap")


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


class _InputError(Exception):
    pass


def _token_chunks(fobj):
    """Whitespace-separated tokens of ASCII digits 0-9, as integers, one
    list per read.

    A token split by a read boundary is carried into the next read.  When
    a token is anything else, the valid tokens before it come as one more
    list, and `_InputError` follows on the next iteration.
    """
    carry = ""
    index = 0
    while True:
        chunk = fobj.read(65536)
        if not chunk:
            break
        text = carry + chunk
        parts = text.split()
        carry = parts.pop() if parts and not chunk[-1].isspace() else ""
        yield from _parse_tokens(parts, index, text)
        index += len(parts)
    if carry:
        yield from _parse_tokens([carry], index, carry)


def _parse_tokens(parts: list[str], index: int, text: str):
    """Yield the tokens of `text` as one list; on a bad one, the tokens
    before it."""
    # `int` also reads signs, underscores and non-ASCII digits, so it may
    # only parse a read that has none of them; there it raises on any
    # token that is not ASCII digits.
    if text.isascii() and not ("+" in text or "-" in text or "_" in text):
        try:
            vals = list(map(int, parts))
        except ValueError:
            pass
        else:
            yield vals
            return
    # Slow path: check each token, and name the first bad one's index.
    good = []
    for k, tok in enumerate(parts):
        try:
            good.append(_parse_token(tok, index + k))
        except _InputError:
            yield good
            raise
    yield good


def _parse_token(tok: str, index: int) -> int:
    if tok.isascii() and tok.isdigit():
        return int(tok)
    try:
        what = "is negative" if int(tok, 10) < 0 else "is not in ASCII digits"
    except ValueError:
        what = "is not an integer"
    raise _InputError(f"token {tok!r} at position {index} {what}")


def _raw_chunks(fobj):
    return iter(lambda: fobj.read(65536), b"")


def _read_all(path: str, raw: bool) -> list[int]:
    if raw:
        with open(path, "rb") as f:
            return list(f.read())
    with open(path, "r") as f:
        return [v for chunk in _token_chunks(f) for v in chunk]


def _open_text_stream(path: str, raw: bool):
    chunks = _raw_chunks if raw else _token_chunks
    if path == "-":
        return chunks(sys.stdin.buffer if raw else sys.stdin), None
    f = open(path, "rb" if raw else "r")
    return chunks(f), f


def _count(least: int):
    """argparse type: a base-10 integer of at least `least`."""

    def parse(tok: str) -> int:
        v = int(tok, 10)
        if v < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {v}")
        return v

    parse.__name__ = "positive int" if least == 1 else "non-negative int"
    return parse


_POSITIVE = _count(1)
_NON_NEGATIVE = _count(0)


def _add_seed(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=1, help="PRNG seed (u64)")


def _add_common(p: _Parser) -> None:
    _add_seed(p)
    p.add_argument("--prime-bits", type=int, default=DEFAULT_PRIME_BITS)


def build_parser() -> _Parser:
    top = _Parser(prog="parmatch", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("match", help="scan a text stream for pattern matches")
    m.add_argument("--pattern", required=True, help="pattern file")
    m.add_argument("--text", required=True, help="text file, or - for stdin")
    m.add_argument("--mode", choices=("auto", "det", "rand"), default="auto")
    m.add_argument(
        "--alphabet-size", type=_POSITIVE, default=None, dest="alphabet_size"
    )
    m.add_argument("--raw", action="store_true", help="each byte is a symbol")
    m.add_argument("--stats", action="store_true", help="key=value metrics on stderr")
    m.add_argument("--unbuffered", action="store_true")
    _add_common(m)

    v = sub.add_parser("verify", help="matcher vs brute-force oracle")
    v.add_argument("--trials", type=_POSITIVE, default=200)
    v.add_argument("--max-m", type=_POSITIVE, default=256, dest="max_m")
    v.add_argument("--sigma", type=_POSITIVE, default=4)
    v.add_argument("--mode", choices=("auto", "det"), default="auto")
    _add_common(v)

    b = sub.add_parser("bench", help="time/space instrumentation")
    b.add_argument("--m", type=_POSITIVE, default=4096)
    b.add_argument("--n", type=_NON_NEGATIVE, default=0, help="default 3*m")
    b.add_argument("--sigma", type=_POSITIVE, default=4)
    b.add_argument("--kind", default="planted", choices=_KINDS)
    b.add_argument("--mode", choices=("auto", "det", "rand"), default="auto")
    _add_common(b)

    g = sub.add_parser("gen", help="write a deterministic instance")
    g.add_argument("--m", type=_POSITIVE, required=True)
    g.add_argument("--n", type=_NON_NEGATIVE, required=True)
    g.add_argument("--sigma", type=_POSITIVE, default=4)
    g.add_argument("--kind", default="random", choices=_KINDS)
    g.add_argument(
        "--period", type=_POSITIVE, default=None, help="block length (periodic)"
    )
    g.add_argument("--out-pattern", required=True, dest="out_pattern")
    g.add_argument("--out-text", required=True, dest="out_text")
    _add_seed(g)
    return top


def cmd_match(args) -> int:
    pattern = _read_all(args.pattern, args.raw)
    if not pattern:
        raise _InputError("empty pattern")
    m = len(pattern)
    filt = None
    if args.alphabet_size is None and not args.raw:
        # Parameterized matching is alphabet-free, so unless a dense
        # alphabet is declared the text goes through the recency filter.
        dense, distinct = densify_pattern(pattern)
        pattern = dense
        sigma = distinct + 1
        filt = AlphabetFilter(distinct)
    elif args.alphabet_size is not None:
        sigma = args.alphabet_size
    else:
        sigma = 256
    matcher = StreamMatcher(
        pattern, sigma, mode=args.mode, prime_bits=args.prime_bits, seed=args.seed
    )
    chunks, fobj = _open_text_stream(args.text, args.raw)
    out = sys.stdout
    arrivals = 0
    matches = 0
    ends = []

    def emit():
        nonlocal matches
        out.write("".join([f"{e - m + 1}\n" for e in ends]))
        matches += len(ends)
        ends.clear()

    t0 = time.perf_counter()
    try:
        # Each read is matched as one batch.  The filter, if any, maps
        # the whole read to its codes' predecessor distances, which
        # either engine takes as they are.
        if filt is None:
            scan = matcher.scan
        else:
            feed, scan_pred = matcher.feed, filt.scan_pred

            def scan(chunk, out):
                feed(scan_pred(chunk), out)

        for chunk in chunks:
            scan(chunk, ends)
            arrivals += len(chunk)
            if ends:
                emit()
                if args.unbuffered:
                    out.flush()
    finally:
        # When an error stops a read, the matches before it still print.
        emit()
        if fobj is not None:
            fobj.close()
    elapsed = time.perf_counter() - t0
    if args.stats:
        err = sys.stderr
        err.write(f"mode={matcher.mode}\n")
        err.write(f"arrivals={arrivals}\n")
        err.write(f"matches={matches}\n")
        err.write(f"elapsed_s={elapsed:.6f}\n")
        if arrivals:
            err.write(f"throughput_sym_per_s={arrivals / max(elapsed, 1e-9):.0f}\n")
        err.write(f"peak_live_words={matcher.live_words_peak()}\n")
        if matcher.mode == "rand":
            err.write(f"max_ops={matcher.max_ops()}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    import random as _random

    rng = _random.Random(args.seed)
    kinds = ("random", "planted", "periodic")
    discrepancies = 0
    violations = 0
    for trial in range(args.trials):
        kind = kinds[trial % len(kinds)]
        m = rng.randint(1, args.max_m)
        n = 10 * m
        inst = make_instance(kind, m, n, args.sigma, seed=rng.randrange(2**32))
        expected = naive_all_matches(inst.pattern, inst.text)
        try:
            matcher = StreamMatcher(
                inst.pattern,
                inst.sigma,
                mode=args.mode,
                prime_bits=args.prime_bits,
                seed=args.seed,
            )
            got = [e - m + 1 for e in matcher.scan(inst.text)]
        except StructuralViolation:
            violations += 1
            continue
        if got != expected:
            discrepancies += 1
    print(f"trials={args.trials}")
    print(f"discrepancies={discrepancies}")
    print(f"structural_violations={violations}")
    return EXIT_OK if discrepancies == 0 and violations == 0 else EXIT_USAGE


def cmd_bench(args) -> int:
    n = args.n or 3 * args.m
    inst = make_instance(args.kind, args.m, n, args.sigma, seed=args.seed)

    def build():
        return StreamMatcher(
            inst.pattern,
            inst.sigma,
            mode=args.mode,
            prime_bits=args.prime_bits,
            seed=args.seed,
        )

    # Throughput comes from one scan on a fresh matcher; the op counters
    # from a second, stepped pass, whose per-arrival reads stay untimed.
    t0 = time.perf_counter()
    matcher = build()
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    matches = len(matcher.scan(inst.text))
    elapsed = time.perf_counter() - t0
    ops_total = 0
    ops_max = 0
    if matcher.mode == "rand":
        stepped = build()
        step = stepped.step
        for sym in inst.text:
            step(sym)
            ops_total += stepped.ops_last
        ops_max = stepped.max_ops()
    print(f"mode={matcher.mode}")
    print(f"m={args.m}")
    print(f"n={n}")
    print(f"sigma={inst.sigma}")
    print(f"kind={inst.kind}")
    print(f"matches={matches}")
    print(f"max_ops={ops_max}")
    print(f"mean_ops={ops_total / max(1, n):.3f}")
    print(f"peak_live_words={matcher.live_words_peak()}")
    print(f"setup_s={setup:.6f}")
    print(f"elapsed_s={elapsed:.6f}")
    print(f"throughput_sym_per_s={n / max(elapsed, 1e-9):.0f}")
    return EXIT_OK


def cmd_gen(args) -> int:
    kw = {}
    if args.period is not None:
        if args.kind != "periodic":
            raise _UsageExit(f"--period applies to --kind periodic, not {args.kind}")
        kw["block"] = args.period
    inst = make_instance(args.kind, args.m, args.n, args.sigma, seed=args.seed, **kw)
    with open(args.out_pattern, "w") as f:
        f.write(" ".join(map(str, inst.pattern)))
        f.write("\n")
    with open(args.out_text, "w") as f:
        f.write(" ".join(map(str, inst.text)))
        f.write("\n")
    return EXIT_OK


_COMMANDS = {
    "match": cmd_match,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except _UsageExit as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (_InputError, AlphabetError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except StructuralViolation as e:
        print(f"structural violation: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
