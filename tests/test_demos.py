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
    "spinc_line_bundle_walkthrough.py": "277765898b477d3bb5e3ba0aaf42e6825b6047fb2e37054d51b8279b0721a9eb",
    "theta_and_modular_generators.py": "8f15e1e40255701ce39ec188882240a1a0f6ddc753c68e251d9b33e1ea336fbe",
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
