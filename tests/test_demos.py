"""Byte-stability of the demo scripts.

``demos_golden.json`` maps each script under ``demos/`` to the exact stdout
it printed when the snapshot was taken.  Every demo is deterministic, so any
difference is a change in what the library computes or prints.  Nothing
regenerates the snapshot; a change in output is a change to review.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = os.path.join(ROOT, "demos")
SNAPSHOT = os.path.join(os.path.dirname(__file__), "demos_golden.json")

NAMES = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def _load_snapshot() -> dict[str, str]:
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_exactly_the_demos():
    assert sorted(_load_snapshot()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_demo_prints_the_snapshot_bytes(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    assert run.stdout == _load_snapshot()[name].encode("utf-8")
