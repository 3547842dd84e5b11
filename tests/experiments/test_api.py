"""Tests for the first-class Experiment API: typed params, uniform results,
serialization, golden-table parity, and parallel execution."""

import json
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    EXPERIMENTS,
    BadParamError,
    ExperimentResult,
    Param,
    UnknownExperimentError,
    get_experiment,
    run_experiment,
)
from repro.experiments.api import ExperimentError, config_fingerprint, derive_params
from repro.experiments.cli import run_many
from repro.sim.sweep import SweepEngine
from repro.sparse.formats import Precision

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def results():
    """Every registered experiment run once with default parameters."""
    return {key: exp.run() for key, exp in EXPERIMENTS.items()}


class TestResultShape:
    def test_every_experiment_returns_well_formed_result(self, results):
        for key, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.experiment_id == key
            assert result.title == EXPERIMENTS[key].title
            assert result.columns, key
            assert result.rows, key
            for row in result.rows:
                assert isinstance(row, dict)
                assert tuple(row.keys()) == result.columns

    def test_rows_are_json_safe(self, results):
        for key, result in results.items():
            text = json.dumps([dict(r) for r in result.rows])
            assert json.loads(text) is not None, key

    def test_provenance_is_complete(self, results):
        for key, result in results.items():
            provenance = result.provenance
            assert provenance.experiment_id == key
            assert provenance.repo_version == repro.__version__
            assert provenance.wall_time_s >= 0.0
            assert len(provenance.config_fingerprint) == 16
            declared = {p.name for p in EXPERIMENTS[key].params}
            assert set(provenance.params) == declared

    def test_fingerprint_depends_on_params(self):
        base = config_fingerprint("fig19", {"models": ["nerf"]})
        assert base == config_fingerprint("fig19", {"models": ["nerf"]})
        assert base != config_fingerprint("fig19", {"models": ["tensorf"]})
        assert base != config_fingerprint("fig18", {"models": ["nerf"]})


class TestSerialization:
    def test_json_round_trip(self, results):
        for key, result in results.items():
            restored = ExperimentResult.from_json(result.to_json())
            assert restored == result, key

    def test_csv_has_header_and_rows(self, results):
        for result in results.values():
            lines = result.to_csv().splitlines()
            assert len(lines) == len(result.rows) + 1
            assert lines[0].split(",")[0] == result.columns[0].split(",")[0]

    def test_deserialized_result_still_renders_a_table(self, results):
        restored = ExperimentResult.from_json(results["fig04"].to_json())
        text = restored.to_table()
        assert "early_cnn" in text


class TestGoldenTables:
    """Default table output is pinned byte-for-byte against the seed modules."""

    def test_golden_file_per_experiment(self):
        assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == set(EXPERIMENTS)

    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_table_matches_golden(self, key, results):
        golden = (GOLDEN_DIR / f"{key}.txt").read_text().rstrip("\n")
        assert results[key].to_table() == golden


class TestTypedParams:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError):
            get_experiment("fig99")
        with pytest.raises(KeyError):  # back-compat: it is also a KeyError
            get_experiment("fig99")

    def test_unknown_param_rejected(self):
        with pytest.raises(BadParamError):
            run_experiment("fig06", bogus=1)

    def test_string_values_are_parsed(self):
        result = run_experiment("fig06", rows="32", cols="32")
        assert result.raw[0].num_multipliers == 32 * 32
        assert result.provenance.params["rows"] == 32

    def test_repeated_params_parse_comma_separated(self):
        param = get_experiment("fig19").param("pruning_ratios")
        assert param.parse("0,0.5,0.9") == (0.0, 0.5, 0.9)
        with pytest.raises(BadParamError):
            param.parse("0,zap")

    def test_precision_params_parse_names(self):
        param = get_experiment("fig15").param("precision")
        assert param.parse("int8") is Precision.INT8
        assert param.parse("INT16") is Precision.INT16
        with pytest.raises(BadParamError):
            param.parse("fp64")

    def test_sequences_are_coerced(self):
        result = run_experiment("fig19", models=["instant-ngp"], pruning_ratios=[0, 0.9])
        assert result.provenance.params["pruning_ratios"] == [0.0, 0.9]

    def test_bad_element_type_rejected(self):
        with pytest.raises(BadParamError):
            run_experiment("fig06", rows=object())

    def test_param_flag_naming(self):
        assert Param("pruning_ratios", float, (), repeated=True).flag == "--pruning-ratios"


def _typed_run(
    device: str = "flexnerfer",
    rows: int = 64,
    rate_rps: float = 20.0,
    precision: Precision = Precision.INT8,
    ratios: tuple[float, ...] = (0.0, 0.5),
    engine: SweepEngine | None = None,
    note=None,
):
    """A run() with one argument of every kind the schema derivation reads."""


_TYPED_HELP = {
    "device": "device name",
    "rows": "array rows",
    "rate_rps": "arrival rate",
    "precision": "precision mode",
    "ratios": "pruning ratios",
}


class TestDerivedSchema:
    """The parameter schema is read off run()'s signature, help from the decorator."""

    def test_each_supported_hint_becomes_a_param(self):
        assert derive_params(_typed_run, _TYPED_HELP) == (
            Param("device", str, "flexnerfer", "device name"),
            Param("rows", int, 64, "array rows"),
            Param("rate_rps", float, 20.0, "arrival rate"),
            Param("precision", Precision, Precision.INT8, "precision mode"),
            Param("ratios", float, (0.0, 0.5), "pruning ratios", repeated=True),
        )

    def test_other_arguments_stay_programmatic(self):
        names = [p.name for p in derive_params(_typed_run, _TYPED_HELP)]
        assert "engine" not in names and "note" not in names
        # A registered experiment keeps its engine / config arguments off the CLI.
        assert [p.name for p in get_experiment("fig19").params] == [
            "models",
            "pruning_ratios",
        ]

    def test_help_for_an_unknown_argument_is_rejected(self):
        with pytest.raises(ExperimentError, match="help for 'bogus' names no"):
            derive_params(_typed_run, {**_TYPED_HELP, "bogus": "no such argument"})
        with pytest.raises(ExperimentError, match="help for 'engine' names no"):
            derive_params(_typed_run, {**_TYPED_HELP, "engine": "not a parameter"})

    def test_bool_arguments_cannot_be_params(self):
        def run(fast: bool = False):
            """A bool flag has no parameter type."""

        with pytest.raises(ExperimentError, match=r"test_api\..*help for 'fast'"):
            derive_params(run, {"fast": "go fast"})

    def test_param_without_help_is_rejected(self):
        help_text = dict(_TYPED_HELP)
        del help_text["rows"]
        with pytest.raises(ExperimentError, match="parameter 'rows' has no help text"):
            derive_params(_typed_run, help_text)

    def test_param_without_default_is_rejected(self):
        def run(device: str, engine: SweepEngine | None = None):
            """``device`` has no default to expose."""

        with pytest.raises(ExperimentError, match="parameter 'device' has no default"):
            derive_params(run, {"device": "device name"})

    def test_errors_are_one_line_and_name_the_module(self):
        with pytest.raises(ExperimentError) as info:
            derive_params(_typed_run, {})
        assert "\n" not in str(info.value)
        assert str(info.value).startswith(f"{__name__}._typed_run:")


class TestParallelExecution:
    def test_run_all_jobs2_matches_serial(self, results, monkeypatch):
        from repro.sim import sweep

        # A fresh default engine: the threads fill the probe and report
        # tiers cold and concurrently instead of hitting the warmed ones.
        monkeypatch.setattr(sweep, "_DEFAULT_ENGINE", sweep.SweepEngine())
        experiments = list(EXPERIMENTS.values())
        parallel = run_many(experiments, jobs=2)
        assert [r.experiment_id for r in parallel] == list(EXPERIMENTS)
        for result in parallel:
            serial = results[result.experiment_id]
            assert result.columns == serial.columns
            assert result.rows == serial.rows
            assert result.to_table() == serial.to_table()
