"""The scripts under scripts/ run end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == header.split()
    assert len(lines) == 1 + rows
