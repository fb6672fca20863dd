"""The indexed coherence check against the all-pairs loop it replaces, and
`obstruction` against the specification's witnesses.

`coherent_set_check` runs `obstruction` only on the pairs (a, b) where b's
deletion record deletes or relabels an element a requires.  `all_pairs`
runs it on every ordered pair in (a, b) order, as the check did before.
Both must give the same verdict: coherent, or the same failing pair,
element and reason.  On every ordered pair of the random sets,
`obstruction` must find nothing exactly when the checked constructors
build the witness into the context `pushout_complement` builds, and
`check_parallel_independent`, which decides by building its witnesses,
must agree with `obstruction` on both full left sides.
"""

import random

import pytest

from weakspan import (
    AttrMorphism,
    GraphMorphism,
    HexGridSpec,
    IncoherentSetError,
    apply_direct,
    cmd_hexca,
    coherent_set_check,
    fibonacci_system,
    hex_system,
)
from weakspan.constructions import WitnessMatrix, check_parallel_independent, pushout_complement
from weakspan.rewriting import obstruction

from randgen import random_host, random_instance
from test_pct_reference import step_gammas


def all_pairs(gammas):
    for a, ga in enumerate(gammas):
        for b, gb in enumerate(gammas):
            if a != b:
                found = obstruction(ga.rule.I, ga.required_image, ga.match.alpha, gb)
                if found is not None:
                    return False, (a, b), found[0], found[1]
    return True, None, None, ""


def refusal(gammas):
    """The IncoherentSetError ``coherent_set_check`` raises, or None."""
    try:
        assert coherent_set_check(gammas) is None
    except IncoherentSetError as error:
        return error
    return None


def assert_same_verdict(gammas):
    """Compare the two checks; for a coherent set also read the whole matrix."""
    error = refusal(gammas)
    if error is None:
        assert (True, None, None, "") == all_pairs(gammas)
    else:
        assert (False, error.pair, error.element, error.reason) == all_pairs(gammas)
        assert error.rules == tuple(gammas[i].rule.name for i in error.pair)
        with pytest.raises(IncoherentSetError):
            WitnessMatrix(gammas)
        return False
    matrix = WitnessMatrix(gammas)
    p = len(gammas)
    keys = [(a, b) for a in range(p) for b in range(p)]
    assert len(matrix) == p * p
    assert list(matrix) == keys
    contexts = [pushout_complement(g.rule.l, g.match.m).complement for g in gammas]
    for a, b in keys:
        witness = matrix[(a, b)]
        assert witness is matrix[(a, b)]
        assert witness.target == contexts[b]
        assert witness.source is gammas[a].rule.I
        AttrMorphism(witness.source, witness.target, witness.sigma, witness.alpha)
    return True


def random_set(rng, size):
    host = random_host(rng)
    return [apply_direct(random_instance(rng, host, var_names=(f"u{c}", f"v{c}"),
                                         name=f"r{c}"))
            for c in range(size)]


def random_sets():
    """The sets of three to six applications of seeds 7000-7299."""
    for trial in range(300):
        rng = random.Random(7000 + trial)
        yield random_set(rng, rng.randint(3, 6))


def embeds(part, image, alpha, context):
    """Whether the checked constructors build the morphism that sends each
    element x of ``part`` to ``image[x]`` in ``context``."""
    graph = part.graph
    try:
        AttrMorphism(part, context,
                     GraphMorphism(graph, context.graph, {x: image[x] for x in graph.nodes},
                                   {x: image[x] for x in graph.edges}),
                     alpha)
    except ValueError:
        return False
    return True


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
    for gammas in random_sets():
        verdicts.append(assert_same_verdict(gammas))
        pairs_refused.add(getattr(refusal(gammas), "pair", None))
    assert 30 <= sum(verdicts) <= 270
    # refusals are not all found at the first pair the loop reaches
    assert len(pairs_refused - {None, (0, 1)}) >= 5


def test_obstruction_finds_nothing_exactly_when_the_witness_builds():
    """Every ordered pair (a, b), the diagonal included: I_a -> D_b."""
    verdicts = []
    for gammas in random_sets():
        contexts = [pushout_complement(g.rule.l, g.match.m).complement for g in gammas]
        for ga in gammas:
            for gb, context in zip(gammas, contexts):
                found = obstruction(ga.rule.I, ga.required_image, ga.match.alpha, gb)
                built = embeds(ga.rule.I, ga.required_image, ga.match.alpha, context)
                assert (found is None) == built, (ga.rule.name, gb.rule.name, found)
                verdicts.append(built)
    assert (len(verdicts), verdicts.count(False)) == (6548, 645)


def test_independence_is_refused_exactly_when_a_left_side_is_obstructed():
    """Every ordered pair, the diagonal included: the witnesses exist
    exactly when the engine's `obstruction` finds nothing for either full
    left side L, through its match's element map, in the other
    application's context."""
    verdicts = []
    for gammas in random_sets():
        for ga in gammas:
            for gb in gammas:
                obstructed = any(
                    obstruction(g.rule.L, g.match.m.sigma.element_map(), g.match.alpha, other)
                    is not None for g, other in ((ga, gb), (gb, ga)))
                witnesses = check_parallel_independent(ga, gb)
                assert (witnesses is None) == obstructed, (ga.rule.name, gb.rule.name)
                verdicts.append(witnesses is not None)
    assert (len(verdicts), verdicts.count(True)) == (6548, 3376)


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
    matrix = WitnessMatrix(step_gammas(system, system.host))
    assert len(matrix) == 4
    for key in [(2, 0), (0, -1), (0,), (0, 1, 2), "01", 0]:
        assert key not in matrix
        with pytest.raises(KeyError):
            matrix[key]
    assert dict(matrix) == {key: matrix[key] for key in matrix}
