"""The command-line contract over mutated copies of every shipped spec.

Each case sets one or two leaves of a ``specs/*.json`` document to a hostile
value (an overflowing or subnormal double, a signed zero, a 400-digit
literal, an out-of-range decimal string, a huge tap index, a bool, null or an
empty container) and runs every subcommand in-process through ``cli.main``.
Whatever the input, no exception escapes ``main``; exit 2 names a JSON path
or an argument on stderr; exit 1 is a documented verdict on stdout or one
``error:`` line that names what it refuses.  The cases are drawn from fixed
seeds, and no timing is asserted.
"""

import contextlib
import io
import json
import os
import random
import re

import pytest

from liftbank.cli import main

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")
SPECS = sorted(f for f in os.listdir(SPEC_DIR) if f.endswith(".json"))

#: Hostile values for a leaf of each JSON type: mostly one of its own kind,
#: which gets past the shape checks, else any of ``ANY_KIND``.
SAME_KIND = {
    str: ["1e400", "1e-5000", "5e-324", "-0.0", str(10**400 - 1), "1/" + str(10**400 - 1)],
    float: [1e308, -1e308, 5e-324, -0.0, 10**400 - 1],
    int: [10**18, -(10**18), 10**400 - 1, -1, 2],  # tap indices and update characteristics
}
ANY_KIND = [1e308, 5e-324, -0.0, "1e400", True, None, [], {}]

#: Random mutants per spec, after one per hostile value of its gain "k".
MUTATIONS_PER_SPEC = 16

#: The verdicts a subcommand prints on stdout when it exits 1.
VERDICTS = {"non-compliant\n", "not-applicable\n", "inequivalent\n"}

#: What an exit-1 refusal may be about: the gain, kappa, a step or its
#: filter, the base or a matrix, the arithmetic mode, a factorization or a
#: transform's samples and subbands.
SUBJECT = re.compile(
    r"\bK\b|kappa|step|filter|base|matrix|det\b|mode|arithmetic|factor|sample|subband"
    r"|signal|lowpass|DC gain|m_init|renormaliz|reversible|scalar"
)


def _leaves(doc, path=()):
    """The path of every scalar leaf and of every non-empty container."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    if path:
        yield path
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _mutants(name: str):
    """(label, text) mutants of one spec, from a seed of its own."""
    with open(os.path.join(SPEC_DIR, name), encoding="utf-8") as fh:
        original = json.load(fh)
    for value in SAME_KIND[type(original["k"])] if "k" in original else ():
        yield f"{name}:k={str(value)[:12]}", json.dumps({**original, "k": value})
    rng = random.Random(f"cli-contract/{name}")
    paths = list(_leaves(original))
    for i in range(MUTATIONS_PER_SPEC):
        doc = json.loads(json.dumps(original))
        changes = []
        for path in rng.sample(paths, min(len(paths), rng.choice((1, 1, 2)))):
            try:
                leaf = _get(doc, path)
            except (KeyError, IndexError, TypeError):
                continue  # the first change replaced this leaf's container
            same = SAME_KIND.get(type(leaf))
            value = rng.choice(same if same and rng.random() < 0.7 else ANY_KIND)
            _set(doc, path, value)
            changes.append(f"{'.'.join(map(str, path))}={str(value)[:12]}")
        yield f"{name}#{i}:{','.join(changes)}", json.dumps(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(path: str, original: str, signal: str, bands: str):
    yield ["analyze", path]
    yield ["analyze", path, "--format", "json"]
    yield ["validate", path]
    for kappa in ("3/2", "-2", "1e300", "1e-300"):
        yield ["rescale", path, "--kappa", kappa]
    yield ["compare", path, original]
    yield ["transform", path, signal]
    yield ["transform", path, bands, "--direction", "synthesize"]
    yield ["factor", path]


@pytest.mark.parametrize("name", SPECS)
def test_every_subcommand_keeps_the_contract_on_mutated_specs(name, tmp_path):
    signal = tmp_path / "signal.txt"
    signal.write_text("1\n-2\n3\n4\n")
    bands = tmp_path / "bands.txt"
    bands.write_text("1\n2\n-3\n1\n")
    path = tmp_path / "mutant.json"
    original = os.path.join(SPEC_DIR, name)
    for label, text in _mutants(name):
        path.write_text(text)
        for argv in _commands(str(path), original, str(signal), str(bands)):
            where = (label, argv[0], argv[2:])
            code, out, err = _run(argv)  # an exception escaping main fails here
            assert code in (0, 1, 2), where
            if code == 0:
                assert "error" not in err, (where, err)
                continue
            if code == 1 and out in VERDICTS:
                continue
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (where, err)
            assert len(err) < 400, (where, err)
            if code == 2:
                assert "$" in err or "--kappa" in err, (where, err)
            else:
                assert out == "" and SUBJECT.search(err), (where, err)
            # every input sample is finite: a refusal blaming one would mislead
            assert "sample is not finite" not in err or "overflows" in err, (where, err)
