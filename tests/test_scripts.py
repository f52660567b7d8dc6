"""The scripts under scripts/ run to completion at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["convexity_sweep.py", "--points", "5"], ["critical_surface.py"], ["accuracy_envelope.py", "--scale", "0.1"]],
)
def test_script_exits_0(argv):
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], env=subprocess_env(), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
