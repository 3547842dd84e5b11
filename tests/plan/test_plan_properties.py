"""Property suite certifying the planner against brute-force re-derivation.

Fixed-seed randomized plan spaces assert the tentpole's promises:

* **Pareto soundness** -- no frontier point is dominated by *any* evaluated
  point, and every non-dominated point is on the frontier (checked against
  an independent inline dominance implementation, not the library's);
* **constraint-solver optimality** -- ``cheapest_feasible`` equals an
  exhaustive scan with the same deterministic tie-break;
* **bit-determinism** -- re-evaluating a space (serially, with ``jobs=2``,
  or through a warm store) reproduces identical evaluated points.

The iteration budget scales with ``REPRO_FUZZ_ITERATIONS`` (default 200
combined configurations, like ``tests/serve/test_properties.py``); each
random space is small, so the whole suite costs a few hundred fleet
simulations against one shared engine.
"""

import os
import random

import pytest

from repro.perf.store import ResultStore
from repro.plan.evaluate import evaluate_space
from repro.plan.pareto import cheapest_feasible, dominates, pareto_frontier
from repro.plan.space import (
    CONTROL_NAMES,
    SCHEDULER_NAMES,
    TINY_MIX,
    TRAFFIC_SHAPES,
    PlanSpace,
    TrafficSpec,
)
from repro.sim.sweep import SweepEngine

#: Fixed fuzz seed: the whole suite is one reproducible random stream.
SEED = 20260808

#: Combined config budget; override with REPRO_FUZZ_ITERATIONS=<n>.
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

#: Random spaces per property (evaluation is the expensive step, so the
#: budget divides down; never below 3 spaces).
N_SPACES = max(3, ITERATIONS // 40)

DEVICES = ("flexnerfer", "neurex", "rtx-4090")


@pytest.fixture(scope="module")
def engine():
    """One shared engine: every unique (device, scenario) simulates once."""
    return SweepEngine()


def random_space(rng: random.Random, name: str = "fuzz") -> PlanSpace:
    """One random small plan space drawn from the fixed-seed stream."""
    devices = tuple(rng.sample(DEVICES, rng.randint(1, len(DEVICES))))
    worker_counts = tuple(sorted(rng.sample((1, 2, 3), rng.randint(1, 2))))
    schedulers = tuple(rng.sample(SCHEDULER_NAMES, rng.randint(1, 2)))
    controls = tuple(rng.sample(CONTROL_NAMES, rng.randint(1, 2)))
    traffic_shapes = tuple(rng.sample(TRAFFIC_SHAPES, rng.randint(1, 2)))
    traffic = TrafficSpec(
        mix=TINY_MIX,
        rate_rps=rng.choice((20.0, 40.0, 80.0)),
        duration_s=rng.choice((0.5, 1.0)),
        sla_ms=rng.choice((30.0, 60.0, 120.0)),
        seed=rng.randint(0, 3),
    )
    return PlanSpace(
        name=name,
        devices=devices,
        worker_counts=worker_counts,
        traffic=traffic,
        schedulers=schedulers,
        controls=controls,
        traffic_shapes=traffic_shapes,
    )


def brute_force_key(point):
    """The deterministic total order, re-derived from raw fields."""
    return (
        point.cost_per_request,
        point.p99_latency_s,
        point.energy_per_request_j,
        point.point.label,
        point.point.scheduler,
        point.point.control,
        point.point.traffic,
    )


def brute_force_dominates(a, b):
    """Independent inline dominance check (the certifying re-derivation)."""
    av = (a.cost_per_request, a.p99_latency_s, a.energy_per_request_j)
    bv = (b.cost_per_request, b.p99_latency_s, b.energy_per_request_j)
    return av != bv and all(x <= y for x, y in zip(av, bv))


class TestParetoSoundness:
    def test_frontier_matches_brute_force_on_random_spaces(self, engine):
        rng = random.Random(SEED)
        for index in range(N_SPACES):
            space = random_space(rng, name=f"fuzz-{index}")
            evaluated = evaluate_space(space, engine=engine).points
            frontier = pareto_frontier(evaluated)
            context = f"space #{index}: {space.canonical()}"
            # Soundness: nothing on the frontier is dominated by anything.
            for point in frontier:
                dominating = [
                    other
                    for other in evaluated
                    if brute_force_dominates(other, point)
                ]
                assert not dominating, f"{context}: dominated frontier point"
            # Completeness: every non-dominated point is on the frontier.
            expected = sorted(
                (
                    point
                    for point in evaluated
                    if not any(
                        brute_force_dominates(other, point) for other in evaluated
                    )
                ),
                key=brute_force_key,
            )
            assert list(frontier) == expected, context
            assert frontier, f"{context}: a nonempty evaluation has a frontier"

    def test_dominates_agrees_with_brute_force(self, engine):
        rng = random.Random(SEED + 1)
        space = random_space(rng)
        evaluated = evaluate_space(space, engine=engine).points
        for a in evaluated:
            for b in evaluated:
                assert dominates(a, b) == brute_force_dominates(a, b)


class TestConstraintSolver:
    def test_cheapest_feasible_matches_exhaustive_scan(self, engine):
        rng = random.Random(SEED + 2)
        for index in range(N_SPACES):
            space = random_space(rng, name=f"constraint-{index}")
            evaluated = evaluate_space(space, engine=engine).points
            p99s = sorted(p.p99_latency_s for p in evaluated)
            for _ in range(4):
                max_p99 = rng.choice(p99s + [p99s[0] / 2.0, p99s[-1] * 2.0])
                min_attainment = rng.choice((None, 0.5, 0.9, 1.0))
                solution = cheapest_feasible(
                    evaluated, max_p99_s=max_p99, min_attainment=min_attainment
                )
                feasible = [
                    p
                    for p in evaluated
                    if p.p99_latency_s <= max_p99
                    and (
                        min_attainment is None
                        or p.slo_attainment >= min_attainment
                    )
                ]
                context = f"space #{index}: p99<={max_p99} att>={min_attainment}"
                if not feasible:
                    assert solution is None, context
                else:
                    expected = min(feasible, key=brute_force_key)
                    assert solution == expected, context

    def test_unconstrained_solver_returns_global_cheapest(self, engine):
        rng = random.Random(SEED + 3)
        space = random_space(rng)
        evaluated = evaluate_space(space, engine=engine).points
        solution = cheapest_feasible(evaluated)
        assert solution == min(evaluated, key=brute_force_key)


class TestDeterminism:
    def test_repeat_and_parallel_evaluation_are_bit_identical(self, engine):
        rng = random.Random(SEED + 6)
        for index in range(max(3, N_SPACES // 2)):
            space = random_space(rng, name=f"det-{index}")
            first = evaluate_space(space, engine=engine)
            again = evaluate_space(space, engine=engine)
            parallel = evaluate_space(space, engine=engine, jobs=2)
            context = f"space #{index}"
            assert again.points == first.points, context
            assert parallel.points == first.points, context

    def test_store_round_trip_is_exact(self, engine, tmp_path):
        rng = random.Random(SEED + 7)
        space = random_space(rng)
        store = ResultStore(tmp_path / "store")
        cold = evaluate_space(space, engine=engine, store=store)
        warm = evaluate_space(space, engine=engine, store=store)
        assert cold.fresh == len(cold.points) and cold.cached == 0
        assert warm.fresh == 0 and warm.cached == len(cold.points)
        assert warm.points == cold.points
