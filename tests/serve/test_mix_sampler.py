"""Parity: ``ScenarioMix.sample`` draws exactly what ``random.choices`` drew.

The mix precomputes its cumulative weights once instead of letting
``rng.choices(scenarios, weights=weights)[0]`` rebuild them on every draw.
Seeded streams depend on the draw being unchanged, so a fixed-seed fuzz
over weighted and unweighted mixes checks both generators, fed from twin
``random.Random`` instances, pick the same scenario on every draw and
leave their generators in the same state.  The budget follows
``REPRO_FUZZ_ITERATIONS`` (see ``test_properties.py``).
"""

import dataclasses
import os
import random

from repro.serve.request import Scenario, ScenarioMix

SEED = 20261018
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))
DRAWS = 64

SCENARIOS = tuple(
    Scenario(model, scene=scene, width=width, height=width)
    for model in ("instant-ngp", "tensorf")
    for scene in ("lego", "mic", "ship")
    for width in (64, 200)
)


def random_weights(rng, n):
    """Weights of one fuzz case: floats over many scales, or small ints."""
    style = rng.choice(("unit", "spread", "ints", "tiny-and-huge"))
    if style == "unit":
        return tuple(rng.random() + 1e-9 for _ in range(n))
    if style == "spread":
        return tuple(10.0 ** rng.uniform(-6, 6) for _ in range(n))
    if style == "ints":
        return tuple(rng.randint(1, 9) for _ in range(n))
    return tuple(rng.choice((1e-300, 1.0, 1e300)) for _ in range(n))


def test_sample_matches_random_choices():
    rng = random.Random(SEED)
    for _ in range(ITERATIONS):
        n = rng.randint(1, len(SCENARIOS))
        scenarios = tuple(rng.sample(SCENARIOS, n))
        weights = random_weights(rng, n) if rng.random() < 0.7 else None
        mix = ScenarioMix(scenarios, weights)
        seed = rng.randrange(1 << 62)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(DRAWS):
            expected = theirs.choices(mix.scenarios, weights=mix.weights)[0]
            assert mix.sample(ours) is expected, (weights, seed)
        assert ours.getstate() == theirs.getstate()


def test_precomputed_weights_stay_out_of_identity():
    weights = (3.0, 1.0)
    mix = ScenarioMix(SCENARIOS[:2], weights)
    twin = ScenarioMix(SCENARIOS[:2], weights)
    assert mix == twin
    assert hash(mix) == hash(twin)
    assert repr(mix) == f"ScenarioMix(scenarios={SCENARIOS[:2]!r}, weights={weights!r})"
    assert [f.name for f in dataclasses.fields(mix)] == ["scenarios", "weights"]
    assert dataclasses.asdict(mix) == dataclasses.asdict(twin)
    # replace() re-runs __post_init__, so the copy samples its own weights.
    flipped = dataclasses.replace(mix, weights=(1.0, 3.0))
    draws = [flipped.sample(random.Random(s)) for s in range(200)]
    assert draws.count(SCENARIOS[1]) > draws.count(SCENARIOS[0])
