"""The scripts under scripts/, and the benchmark's traced and untraced
passes, run end to end at a small size."""

import json
import os
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
            ["--logm", "10"],
            "m mode setup_s peak_words C_fit op_ceiling ops_max Msym/s",
            1,
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
