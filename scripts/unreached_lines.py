#!/usr/bin/env python3
"""List the lines of src/parmatch that a pytest run never executes.

Runs pytest in this process under `sys.settrace` and `threading.settrace`,
recording the lines executed in frames of src/parmatch, and prints every
executable line (from each code object's `co_lines()`) that never ran, as

    module:line: source

Arguments go to pytest as they are.  Run from the repo root:

    python scripts/unreached_lines.py --ignore=tests/test_acceptance.py

Exits with pytest's status when the tests fail, after the report.
Otherwise exits 1 when a line of an engine module (GATED) never ran and
`ALLOWED` does not cover it, or when an `ALLOWED` key no longer names
exactly one line of its module; else 0.  The unit suite (the command
above) is the gate; the full suite, acceptance tests included, is a run
by hand.  The `__main__`, oracle and generator modules are reported but
not gated: what the unit suite leaves of them runs only in subprocesses
or serves the oracle's error paths.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parmatch"

GATED = (
    "alphabet_filter",
    "cli",
    "det_matcher",
    "fingerprint",
    "match_queue",
    "pattern",
    "predecessor",
    "stream_matcher",
)

# Lines no test reaches, each with where the argument that they need not
# run (or cannot be made to) is written.  Keyed by module and stripped
# source text, which must name exactly one line of the module; a key that
# opens a block (ends with ":") also covers the block's body.
ALLOWED = {
    "det_matcher": {
        # Inside _TEST of the shift machinery in DetCore._body: the
        # machinery completing a match, and its deferred-match check.  The
        # fast path tests `r < q` instead, so the key names this line alone.
        "if r == q:": "CHANGES.md, FOUND line 50",
    },
    "cli": {
        # Runs only when the module runs as a script (`python -m
        # parmatch.cli`).  The in-process tests call main() itself, and
        # test_python_m_parmatch runs it as a script, through `python -m
        # parmatch`, in a child process that the tracer does not see.
        "sys.exit(main())": "tests/test_cli.py::test_python_m_parmatch",
    },
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction of the module's code maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowed_lines(module: str, source: list[str]) -> tuple[set[int], list[str]]:
    """Lines (1-based) the allow-list covers, and its keys that name no
    single line."""
    covered: set[int] = set()
    stale = []
    for key in ALLOWED.get(module, {}):
        hits = [k for k, text in enumerate(source) if text.strip() == key]
        if len(hits) != 1:
            stale.append(key)
            continue
        k = hits[0]
        covered.add(k + 1)
        if key.endswith(":"):
            indent = len(source[k]) - len(source[k].lstrip())
            for j in range(k + 1, len(source)):
                text = source[j]
                if text.strip() and len(text) - len(text.lstrip()) <= indent:
                    break
                covered.add(j + 1)
    return covered, stale


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines run in each file of the
    package, keyed by path."""
    prefix = os.path.join(SRC, "")
    hits: dict[str, set[int]] = {}
    local_tracers: dict = {}

    def tracer(frame, event, arg):
        # Called on each new frame; the local tracer it returns sees the
        # frame's line events.
        code = frame.f_code
        local = local_tracers.get(code)
        if local is None:
            name = code.co_filename
            if not name.startswith(prefix):
                local_tracers[code] = False
                return None
            add = hits.setdefault(name, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            local_tracers[code] = local
        return local or None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    # The checkout's package, imported only once tracing runs.
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = run_traced(argv)
    total = reached = unreached = allowed = 0
    failed = False
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        ran = hits.get(str(path), set()) & lines
        covered, stale = allowed_lines(module, source)
        for key in stale:
            print(f"{module}: allow-list key {key!r} names no single line")
            failed = True
        total += len(lines)
        reached += len(ran)
        for line in sorted(lines - ran):
            unreached += 1
            if module in GATED and line in covered:
                allowed += 1
                continue
            print(f"{module}:{line}: {source[line - 1].strip()}")
            failed |= module in GATED
    print(
        f"{total} executable lines, {reached} run, {unreached} never run"
        f" ({allowed} of them allow-listed)"
    )
    if status != 0:
        # A test that fails under the tracer (a wall-clock bound, say)
        # may leave lines unrun that it would reach.
        print(f"pytest exited {status}", file=sys.stderr)
        return status
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
