"""Plan-space model: validation, deterministic enumeration, content keys."""

import json

import pytest

from repro.perf.store import PlanPointKey
from repro.plan.space import (
    CONTROL_NAMES,
    PLAN_SPECS,
    SCHEDULER_NAMES,
    TINY_MIX,
    TRAFFIC_SHAPES,
    PlanPoint,
    PlanSpace,
    TrafficSpec,
    load_space,
    space_digest,
    space_from_dict,
)

TINY_TRAFFIC = TrafficSpec(mix=TINY_MIX, rate_rps=20.0, duration_s=1.0, sla_ms=100.0)


class TestValidation:
    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device 'warpdrive'"):
            PlanSpace(
                name="bad",
                devices=("warpdrive",),
                worker_counts=(1,),
                traffic=TINY_TRAFFIC,
            )

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError, match="duplicate devices"):
            PlanSpace(
                name="bad",
                devices=("flexnerfer", "flexnerfer"),
                worker_counts=(1,),
                traffic=TINY_TRAFFIC,
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"devices": ()}, "at least one device"),
            ({"worker_counts": ()}, "at least one worker count"),
            ({"worker_counts": (0,)}, "worker counts must be >= 1"),
            ({"worker_counts": (1.9,)}, "worker counts must be >= 1"),
            ({"worker_counts": (float("nan"),)}, "worker counts must be >= 1"),
            ({"worker_counts": (True,)}, "worker counts must be >= 1"),
            ({"worker_counts": (2, 1, 2)}, "duplicate worker counts"),
            ({"schedulers": ()}, "at least one scheduler"),
            ({"schedulers": ("lifo",)}, "unknown scheduler 'lifo'"),
            ({"controls": ()}, "at least one control variant"),
            ({"controls": ("chaos",)}, "unknown control variant 'chaos'"),
        ],
    )
    def test_axis_validation(self, kwargs, message):
        base = dict(
            name="bad",
            devices=("flexnerfer",),
            worker_counts=(1,),
            traffic=TINY_TRAFFIC,
        )
        base.update(kwargs)
        with pytest.raises(ValueError, match=message):
            PlanSpace(**base)

    def test_traffic_validation(self):
        with pytest.raises(ValueError, match="must be positive"):
            TrafficSpec(mix=TINY_MIX, rate_rps=0.0, duration_s=1.0, sla_ms=100.0)
        with pytest.raises(ValueError, match="sla_ms must be positive"):
            TrafficSpec(mix=TINY_MIX, rate_rps=1.0, duration_s=1.0, sla_ms=0.0)

    @pytest.mark.parametrize("seed", [float("nan"), 0.7, -1, True, "3"])
    def test_seed_must_be_a_count(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrafficSpec(
                mix=TINY_MIX, rate_rps=1.0, duration_s=1.0, sla_ms=100.0, seed=seed
            )


class TestEnumeration:
    def test_tiny_space_enumerates_pinned_candidates(self):
        points = PLAN_SPECS["tiny"].enumerate_points()
        assert [(p.fleet, p.scheduler, p.control) for p in points] == [
            (("flexnerfer",), "fifo", "none"),
            (("neurex",), "fifo", "none"),
            (("flexnerfer", "flexnerfer"), "fifo", "none"),
            (("flexnerfer", "neurex"), "fifo", "none"),
            (("neurex", "neurex"), "fifo", "none"),
        ]

    def test_enumeration_is_repeatable(self):
        space = PLAN_SPECS["reference"]
        assert space.enumerate_points() == space.enumerate_points()

    def test_full_cross_product_size(self):
        space = PlanSpace(
            name="cross",
            devices=("flexnerfer", "neurex"),
            worker_counts=(1, 2),
            traffic=TINY_TRAFFIC,
            schedulers=SCHEDULER_NAMES,
            controls=CONTROL_NAMES,
        )
        # (2 singles + 3 pairs) fleets x 3 schedulers x 3 controls.
        assert len(space.enumerate_points()) == 5 * 3 * 3


class TestContentKeys:
    def test_point_digests_are_distinct_and_stable(self):
        points = PLAN_SPECS["tiny"].enumerate_points()
        digests = [p.digest for p in points]
        assert len(set(digests)) == len(digests)
        assert digests == [p.digest for p in PLAN_SPECS["tiny"].enumerate_points()]

    def test_space_digest_ignores_name_but_not_axes(self):
        space = PLAN_SPECS["tiny"]
        renamed = PlanSpace(
            name="renamed",
            devices=space.devices,
            worker_counts=space.worker_counts,
            traffic=space.traffic,
            schedulers=space.schedulers,
            controls=space.controls,
        )
        assert space_digest(renamed) == space_digest(space)
        narrowed = PlanSpace(
            name=space.name,
            devices=space.devices,
            worker_counts=(1,),
            traffic=space.traffic,
        )
        assert space_digest(narrowed) != space_digest(space)

    def test_plan_point_keys_repeat_across_enumerations(self):
        space = PLAN_SPECS["tiny"]

        def key_digests():
            digest = space_digest(space)
            return [
                PlanPointKey(digest, p.digest).digest
                for p in space.enumerate_points()
            ]

        first = key_digests()
        assert len(set(first)) == len(first)
        assert key_digests() == first


class TestSpecLoading:
    def test_builtin_names_resolve(self):
        assert load_space("tiny") is PLAN_SPECS["tiny"]
        assert load_space("reference") is PLAN_SPECS["reference"]

    def test_json_file_round_trip(self, tmp_path):
        spec = {
            "devices": ["flexnerfer", "neurex"],
            "worker_counts": [1, 2],
            "schedulers": ["fifo", "sparsity-aware"],
            "controls": ["none", "queue-cap"],
            "traffic": {
                "rate_rps": 25.0,
                "duration_s": 1.0,
                "sla_ms": 80.0,
                "seed": 3,
                "mix": "tiny",
            },
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec))
        space = load_space(str(path))
        assert space.name == "custom"
        assert space.devices == ("flexnerfer", "neurex")
        assert space.schedulers == ("fifo", "sparsity-aware")
        assert space.traffic.seed == 3
        assert space.traffic.mix is TINY_MIX

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown plan spec 'nope'"):
            load_space("nope")

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "must be a JSON object"),
            ({"traffic": []}, "needs a 'traffic' object"),
            ({"bogus": 1, "traffic": {}}, "unknown plan spec keys"),
            (
                {"traffic": {"rate_rps": 1, "duration_s": 1, "sla_ms": 1, "x": 2}},
                "unknown traffic keys",
            ),
            (
                {
                    "traffic": {
                        "rate_rps": 1,
                        "duration_s": 1,
                        "sla_ms": 1,
                        "mix": "nope",
                    }
                },
                "unknown traffic mix 'nope'",
            ),
            ({"traffic": {"duration_s": 1, "sla_ms": 1}}, "missing 'rate_rps'"),
        ],
    )
    def test_malformed_specs_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            space_from_dict(data)


class TestTraffic:
    def test_requests_are_deterministic_and_stamped(self):
        traffic = PLAN_SPECS["tiny"].traffic
        first = traffic.requests()
        second = traffic.requests()
        assert first == second
        assert first, "traffic spec generated no requests"
        assert all(
            r.deadline_s == pytest.approx(r.arrival_s + traffic.sla_s)
            for r in first
        )

    def test_label_and_digest_of_points(self):
        point = PlanPoint(
            fleet=("flexnerfer", "neurex"), scheduler="fifo", control="none"
        )
        assert point.label == "flexnerfer+neurex"
        assert len(point.digest) == 40


class TestTrafficShapes:
    def multi_shape_space(self, shapes=TRAFFIC_SHAPES):
        return PlanSpace(
            name="shaped",
            devices=("flexnerfer",),
            worker_counts=(1,),
            traffic=TINY_TRAFFIC,
            traffic_shapes=shapes,
        )

    def test_shapes_are_an_innermost_enumeration_axis(self):
        points = self.multi_shape_space().enumerate_points()
        assert [p.traffic for p in points] == list(TRAFFIC_SHAPES)
        assert len({p.digest for p in points}) == len(points)

    def test_default_space_stays_poisson_only(self):
        assert PLAN_SPECS["tiny"].traffic_shapes == ("poisson",)
        assert all(
            p.traffic == "poisson" for p in PLAN_SPECS["tiny"].enumerate_points()
        )

    def test_shape_axis_is_part_of_the_space_digest(self):
        poisson_only = self.multi_shape_space(shapes=("poisson",))
        assert space_digest(self.multi_shape_space()) != space_digest(poisson_only)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="at least one traffic shape"):
            self.multi_shape_space(shapes=())
        with pytest.raises(ValueError, match="unknown traffic shape 'square'"):
            self.multi_shape_space(shapes=("square",))
        with pytest.raises(ValueError, match="duplicate traffic shapes"):
            self.multi_shape_space(shapes=("poisson", "poisson"))

    def test_each_shape_realizes_a_distinct_deterministic_stream(self):
        realizations = {}
        for shape in TRAFFIC_SHAPES:
            requests = TINY_TRAFFIC.requests(shape)
            assert requests, shape
            assert requests == TINY_TRAFFIC.requests(shape), shape
            assert all(
                r.deadline_s == pytest.approx(r.arrival_s + TINY_TRAFFIC.sla_s)
                for r in requests
            ), shape
            realizations[shape] = requests
        assert len({tuple(r) for r in realizations.values()}) == len(TRAFFIC_SHAPES)

    def test_unknown_shape_rejected_at_realization(self):
        with pytest.raises(ValueError, match="unknown traffic shape 'square'"):
            TINY_TRAFFIC.requests("square")

    def test_spec_file_round_trips_shapes(self, tmp_path):
        spec = {
            "devices": ["flexnerfer"],
            "worker_counts": [1],
            "traffic_shapes": ["poisson", "flash-crowd"],
            "traffic": {"rate_rps": 20.0, "duration_s": 1.0, "sla_ms": 100.0},
        }
        path = tmp_path / "shaped.json"
        path.write_text(json.dumps(spec))
        space = load_space(str(path))
        assert space.traffic_shapes == ("poisson", "flash-crowd")
        assert space.canonical()["traffic_shapes"] == ["poisson", "flash-crowd"]
        assert len(space.enumerate_points()) == 2
