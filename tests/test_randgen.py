"""The random instances replay from their seed alone, whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

SAVE_SYSTEMS = """
import sys
from randgen import random_system
from weakspan import save_system
for seed in range(300):
    save_system(random_system(seed), f"{sys.argv[1]}/{seed}.json")
"""


def test_saved_systems_are_byte_identical_under_two_hash_seeds(tmp_path):
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    saved = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        subprocess.run([sys.executable, "-c", SAVE_SYSTEMS, str(out)],
                       env=env, check=True, timeout=120)
        saved.append([(out / f"{seed}.json").read_bytes() for seed in range(300)])
    differ = [seed for seed, (a, b) in enumerate(zip(*saved)) if a != b]
    assert not differ
