"""Each demo runs in a fresh interpreter, exits 0 and prints exactly the pinned output.

The demos are deterministic, so the sha256 of each one's stdout pins every
number it prints, as ``test_cli.py`` pins the suite's JSON.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomcancel

DEMOS = Path(__file__).resolve().parents[1] / "demos"
STDOUT_SHA256 = {
    "bundle_vs_theta_paths.py": "c82903136b31c0a21106ecd58b5da3c2327bb8863a53f2f53a2526d549337e6c",
    "divisibility_audits.py": "9d7c32b34ddea020e4abc8989f9515f815852962c5e8ccee4acb1d3fe64c0a78",
    "spin_verification_walkthrough.py": "2cbd0e2fa6214f3527f7a9df51c16f0c3fd348d9567b67aa3ad0471a8a658a45",
    "spinc_line_bundle_walkthrough.py": "1ff4d8e722ee74262311e813bf8855ac9dac40755eb3031ac60d1fc5a86365c3",
    "theta_and_modular_generators.py": "c13c4d823b272881a602566987d3000709d1eb9d57414540171dde98f893a44f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name):
    src = str(Path(anomcancel.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
