"""The indexed coherence check against the all-pairs loop it replaces.

`coherent_set_check` runs `_obstruction` only on the pairs (a, b) where b's
deletion record deletes or relabels an element a requires.  `all_pairs`
runs it on every ordered pair in (a, b) order, as the check did before.
Both must give the same verdict: ok, failing pair, element and reason.
"""

import random

import pytest

from weakspan import (
    HexGridSpec,
    apply_direct,
    cmd_hexca,
    coherent_set_check,
    fibonacci_system,
    hex_system,
    validate_attr_morphism,
)
from weakspan.rewriting import _obstruction

from randgen import random_host, random_instance
from test_pct_reference import step_gammas


def all_pairs(gammas):
    for a, ga in enumerate(gammas):
        for b, gb in enumerate(gammas):
            if a != b:
                found = _obstruction(ga.rule.I, ga.required_image, ga.match.alpha, gb)
                if found is not None:
                    return False, (a, b), found[0], found[1]
    return True, None, None, ""


def assert_same_verdict(gammas):
    """Compare the two checks; for a coherent set also read the whole matrix."""
    check = coherent_set_check(gammas)
    error = check.error
    if error is None:
        assert (True, None, None, "") == all_pairs(gammas)
    else:
        assert (False, error.pair, error.element, error.reason) == all_pairs(gammas)
        assert error.rules == tuple(gammas[i].rule.name for i in error.pair)
        assert check.matrix is None
    if check.ok:
        p = len(gammas)
        keys = [(a, b) for a in range(p) for b in range(p)]
        assert len(check.matrix) == p * p
        assert list(check.matrix) == keys
        for a, b in keys:
            witness = check.matrix[(a, b)]
            assert witness is check.matrix[(a, b)]
            assert witness.target is gammas[b].D
            assert witness.source is gammas[a].rule.I
            assert validate_attr_morphism(witness).ok
    return check.ok


def random_set(rng, size):
    host = random_host(rng)
    return [apply_direct(random_instance(rng, host, var_names=(f"u{c}", f"v{c}"),
                                         name=f"r{c}"))
            for c in range(size)]


def test_random_overlapping_pairs():
    verdicts = []
    for trial in range(100):
        rng = random.Random(5000 + trial)
        host = random_host(rng)
        gammas = [apply_direct(random_instance(rng, host, var_names=("u", "v"), name="one")),
                  apply_direct(random_instance(rng, host, var_names=("w", "z"), name="two"))]
        verdicts.append(assert_same_verdict(gammas))
    assert 10 <= sum(verdicts) <= 90


def test_random_sets_of_three_to_six():
    verdicts = []
    pairs_refused = set()
    for trial in range(300):
        rng = random.Random(7000 + trial)
        gammas = random_set(rng, rng.randint(3, 6))
        verdicts.append(assert_same_verdict(gammas))
        pairs_refused.add(getattr(coherent_set_check(gammas).error, "pair", None))
    assert 30 <= sum(verdicts) <= 270
    # refusals are not all found at the first pair the loop reaches
    assert len(pairs_refused - {None, (0, 1)}) >= 5


def test_hex_steps_and_their_subsets():
    grid = HexGridSpec(radius=7, seeds=((0, 0), (2, -1)))
    system = hex_system(grid)
    rng = random.Random(11)
    for host in cmd_hexca(grid, generations=3).graphs[:-1]:
        gammas = step_gammas(system, host)
        assert assert_same_verdict(gammas)
        assert assert_same_verdict(rng.sample(gammas, rng.randint(1, len(gammas))))


def test_matrix_rejects_keys_outside_the_set():
    system = fibonacci_system()
    check = coherent_set_check(step_gammas(system, system.host))
    assert len(check.matrix) == 4
    for key in [(2, 0), (0, -1), (0,), (0, 1, 2), "01", 0]:
        assert key not in check.matrix
        with pytest.raises(KeyError):
            check.matrix[key]
    assert dict(check.matrix) == {key: check.matrix[key] for key in check.matrix}
