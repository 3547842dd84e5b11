"""Run a script in a new interpreter, for checks of what importing loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: The ``src/`` directory the test process imports ``repro`` from.
SRC = Path(repro.__file__).resolve().parents[1]


def run_fresh(script: str) -> object:
    """Run ``script`` in a new interpreter on ``src/``; the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
