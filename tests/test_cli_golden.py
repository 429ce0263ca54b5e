"""Byte-stability of the command line over every spec fixture.

``cli_golden.json`` maps each command below to its exit code and the exact
stdout it printed.  Paths in the snapshot are relative: ``specs/...`` names
a fixture, ``{tmp}/...`` a file this module writes (a short signal, the
5/3 analysis matrix, and a gain and signal whose output is past Python's
int->str digit limit).  Nothing regenerates the snapshot; a change in output
is a change to review, entry by entry.
"""

import json
import os

import pytest

from liftbank import serialize_matrix
from liftbank.banks import five_three
from liftbank.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SNAPSHOT = os.path.join(os.path.dirname(__file__), "cli_golden.json")
SIGNAL = "".join(f"{v}\n" for v in (3, -1, 4, 1, -5, 9, 2, -6))
#: A one-step exact spec with a 4001-digit gain: its highpass output past Python's
#: int->str digit limit is refused at its line, with exit 2 and nothing on stdout.
HUGE_GAIN = json.dumps({"mode": "irreversible", "arithmetic": "exact", "k": "1" + "0" * 4000,
                        "steps": [{"update": 0, "taps": [{"n": 0, "c": "1"}]}]})

FIXTURES = sorted(
    name
    for name in os.listdir(os.path.join(ROOT, "specs"))
    if name.endswith(".json") and not name.endswith("_matrix.json")
)
MATRICES = ["specs/haar_matrix.json", "{tmp}/fivethree_matrix.json"]
STRATEGIES = [
    [],
    ["--first", "highpass"],
    ["--reduction", "low-end"],
    ["--reduction", "low-end", "--first", "highpass"],
]


def golden_commands() -> dict[str, list[list[str]]]:
    """Every snapshot command, grouped by subcommand."""
    specs = [f"specs/{name}" for name in FIXTURES]
    return {
        "analyze": [["analyze", s, "--format", f] for s in specs for f in ("text", "json")],
        "validate": [["validate", s] for s in specs],
        "rescale": [["rescale", s, "--kappa", "3/2"] for s in specs],
        "compare": [["compare", a, b] for a in specs for b in specs],
        "transform": [
            ["transform", s, "{tmp}/signal.txt", "--direction", d]
            for s in specs
            for d in ("analyze", "synthesize")
        ] + [["transform", "{tmp}/huge_gain.json", "{tmp}/huge_signal.txt"]],
        "factor": [["factor", m, *opts] for m in MATRICES for opts in STRATEGIES],
    }


def write_inputs(tmp) -> None:
    """Write the ``{tmp}`` inputs of the snapshot commands into ``tmp``."""
    with open(os.path.join(tmp, "signal.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SIGNAL)
    with open(os.path.join(tmp, "fivethree_matrix.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(serialize_matrix(five_three().evaluate()))
    for name, text in (("huge_gain.json", HUGE_GAIN), ("huge_signal.txt", f"1\n{'9' * 1000}\n")):
        with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run_command(argv: list[str], tmp, capsys) -> tuple[int, str]:
    """(exit code, stdout) of one snapshot command."""
    resolved = [
        a.replace("{tmp}", str(tmp)) if a.startswith("{tmp}") else
        os.path.join(ROOT, a) if a.startswith("specs/") else a
        for a in argv
    ]
    capsys.readouterr()
    code = main(resolved)
    return code, capsys.readouterr().out


def _load_snapshot() -> dict[str, dict]:
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_exactly_the_commands():
    expected = {" ".join(a) for group in golden_commands().values() for a in group}
    assert set(_load_snapshot()) == expected


@pytest.mark.parametrize("group", sorted(golden_commands()))
def test_cli_output_matches_snapshot(group, tmp_path, capsys):
    write_inputs(tmp_path)
    snapshot = _load_snapshot()
    differ = []
    for argv in golden_commands()[group]:
        want = snapshot[" ".join(argv)]
        code, out = run_command(argv, tmp_path, capsys)
        if (code, out) != (want["exit"], want["stdout"]):
            differ.append(" ".join(argv))
    assert differ == []
