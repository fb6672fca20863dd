"""Seeded mutations of the saved presets never escape the command line.

Each case deletes or replaces a few random fields of a saved `fib` or
radius-2 `hex` system file and runs one subcommand on it through
`cli.main`.  Every case must end in a known exit code with no exception
and no traceback.
"""

import json
import random

import pytest

from weakspan.cli import main

REPLACEMENTS = (None, True, 0, -1, 7, 2.5, "", "p", "x", "u+v", "1", [], {}, [1], ["p"],
                [{"id": "x"}], {"nodes": 5}, {"x": "y"})


def _locations(value, out):
    """Every (container, key) pair in a JSON document, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append((value, key))
        _locations(child, out)
    return out


def _mutate(doc, rng):
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(_locations(doc, []))
        roll = rng.random()
        if roll < 0.3:
            del container[key]
        elif roll < 0.6:
            # a field from elsewhere in the file: the right kind of value in the wrong place
            donor, donor_key = rng.choice(_locations(doc, []))
            container[key] = json.loads(json.dumps(donor[donor_key]))
        else:
            container[key] = json.loads(json.dumps(rng.choice(REPLACEMENTS)))
    return doc


@pytest.fixture(scope="module")
def presets(tmp_path_factory):
    root = tmp_path_factory.mktemp("presets")
    texts = {}
    for name, extra in (("fib", []), ("hex", ["--radius", "2"])):
        path = root / f"{name}.json"
        assert main(["preset", name, *extra, "--out", str(path)]) == 0
        texts[name] = path.read_text()
    return texts


@pytest.mark.parametrize("seed", range(6))
def test_mutated_presets_exit_cleanly(seed, presets, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "mutated.json"
    codes = set()
    for _ in range(50):
        name = rng.choice(sorted(presets))
        path.write_text(json.dumps(_mutate(json.loads(presets[name]), rng)))
        files = ["--rules", str(path), "--host", str(path)]
        command = rng.choice((
            ["run", *files, "--steps", "2", "--mode", rng.choice(("pct", "seq"))],
            ["match", *files],
            ["pct", *files],
            ["export", "--host", str(path), "--dot", str(tmp_path / "out.dot")],
        ))
        code = main(command)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (command[0], err)
        assert "Traceback" not in err
        codes.add(code)
    assert 2 in codes
