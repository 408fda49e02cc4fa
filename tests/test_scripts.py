"""The scripts under scripts/, and the benchmark's traced and untraced
passes, run end to end at a small size."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(path, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, header, rows",
    [
        (
            "space_time_scaling.py",
            ["--logm", "8", "10"],
            "m mode setup_s peak_words C_fit op_ceiling ops_max Msym/s",
            2,
        ),
        (
            "det_space_profile.py",
            ["--rhos", "1", "10"],
            "rho m peak_words C_fit max_shifts",
            2,
        ),
    ],
)
def test_script_runs(script, args, header, rows):
    done = run_python(ROOT / "scripts" / script, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == header.split()
    assert len(lines) == 1 + rows
    if script == "space_time_scaling.py":
        # m = 2^8 routes to det, which counts no ops; m = 2^10 to rand.
        ops = {row.split()[1]: row.split()[6] for row in lines[1:]}
        assert ops["det"] == "-" and ops["rand"].isdigit()


def test_traced_benchmark_runs():
    # The traced pass reads engine internals (match queue segments,
    # positions, lengths and law mismatches, level fingerprints, the
    # words gauge, phase A's core), so a change to them shows here.
    done = run_python(
        ROOT / "perfbench" / "run.py",
        "--workload", "periodic_dense", "--seed", "5", "--seconds", "1", "--trace", "1",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_untraced_cli_benchmark_runs():
    # The untraced pass is the one whose metrics are compared between
    # changes.  On cli_tokens, the only workload that routes to det, it
    # deep-copies a det-mode matcher, reads its stream index and runs
    # `parmatch match` in-process.
    done = run_python(
        ROOT / "perfbench" / "run.py",
        "--workload", "cli_tokens", "--seed", "5", "--seconds", "1", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def test_unreached_lines_lists_what_a_suite_leaves_out():
    # Over the match queue's own tests every line of match_queue.py runs,
    # while the other engine modules are barely touched, so the gate
    # fails and lists their lines, each with its source.
    done = run_python(
        ROOT / "scripts" / "unreached_lines.py", str(ROOT / "tests" / "test_match_queue.py")
    )
    assert done.returncode == 1, done.stderr
    listed = re.findall(r"^(\w+):(\d+): (.*)$", done.stdout, re.M)
    modules = {module for module, _, _ in listed}
    assert "match_queue" not in modules
    assert {"stream_matcher", "det_matcher", "pattern"} <= modules
    for module, line, text in listed:
        source = (ROOT / "src" / "parmatch" / f"{module}.py").read_text().splitlines()
        assert source[int(line) - 1].strip() == text
    assert re.search(r"^\d+ executable lines, \d+ run, \d+ never run", done.stdout, re.M)


def test_code_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Module\n docstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(y):\n"
        '    """Function docstring."""\n'
        "    return (y,\n"
        '            """a string\n'
        '            that is not a docstring""")\n'
    )
    (tmp_path / "b.py").write_text("class C:\n    '''Doc.'''\n\n    z = 2\n")
    done = run_python(ROOT / "scripts" / "code_lines.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a 5 11", "b 2 4", "total 7 15"]


def test_code_lines_counts_the_package():
    done = run_python(ROOT / "scripts" / "code_lines.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = {row[0]: (int(row[1]), int(row[2])) for row in rows[:-1]}
    assert set(modules) == {p.stem for p in (ROOT / "src" / "parmatch").glob("*.py")}
    assert all(0 < code < physical for code, physical in modules.values())
    assert rows[-1] == [
        "total",
        str(sum(code for code, _ in modules.values())),
        str(sum(physical for _, physical in modules.values())),
    ]
