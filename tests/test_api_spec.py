"""The canonical RunSpec / ExperimentSpec API and its cache-key contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import RunSpec, canonical_json, default_salt, run_spec, stable_key
from repro.core.results import load_run_spec, metrics_to_dict
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestRunSpecValidation:
    def test_needs_exactly_one_size_field(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp")
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4, num_layers=24)

    @pytest.mark.parametrize("size", [0.0, -1.4, float("nan"),
                                      float("inf"), float("-inf")])
    def test_rejects_non_finite_or_non_positive_size(self, size):
        with pytest.raises(ConfigurationError, match="size_billions"):
            RunSpec(strategy="ddp", size_billions=size)

    def test_rejects_bad_tie_order(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4, tie_order="random")

    def test_rejects_warmup_at_or_above_iterations(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4,
                    iterations=2, warmup_iterations=2)

    def test_faults_normalized_to_tuple(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4,
                       faults=["switch0:degrade@t=1ms,dur=1ms,mag=0.5"])
        assert isinstance(spec.faults, tuple)

    def test_label(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        assert spec.label == "zero2-1.4b-n1-B"


NAN, INF = float("nan"), float("inf")


def _inference(**changes):
    from repro.inference import InferenceSpec

    return InferenceSpec(**{"size_billions": 0.7, **changes})


def _scenario(**changes):
    from repro.cluster import ClusterScenario

    return ClusterScenario(**changes)


def _job(**changes):
    from repro.cluster.jobs import JobSpec

    return JobSpec(**{"name": "j", "tenant": "t", "strategy": "ddp",
                      "size_billions": 0.7, "gpus": 1, **changes})


SPEC_BUILDERS = {
    "run": lambda **changes: RunSpec("ddp", **{"size_billions": 1.4,
                                               **changes}),
    "inference": _inference,
    "scenario": _scenario,
    "job": _job,
    "serving_job": lambda **changes: _job(workload="inference", **changes),
}


class TestNonFiniteSpecInputs:
    """NaN passes every plain ``<=``/``<`` bound, so each numeric spec
    field goes through the shared finite-and-range check."""

    @pytest.mark.parametrize("kind,field,value", [
        ("run", "size_billions", "1.4"),
        ("run", "tie_order", "random"),
        ("inference", "size_billions", NAN),
        ("inference", "size_billions", INF),
        ("inference", "rate_per_second", NAN),
        ("inference", "rate_per_second", INF),
        ("inference", "slo_ttft_s", NAN),
        ("inference", "slo_tpot_s", NAN),
        ("inference", "kv_fraction", NAN),
        ("inference", "tie_order", "random"),
        ("scenario", "rate_per_hour", NAN),
        ("scenario", "rate_per_hour", INF),
        ("scenario", "aging_rate", NAN),
        ("scenario", "aging_rate", INF),
        ("scenario", "tie_order", "random"),
        ("job", "size_billions", NAN),
        ("serving_job", "request_rate_per_s", NAN),
    ])
    def test_bad_value_raises_configuration_error(self, kind, field, value):
        with pytest.raises(ConfigurationError, match=field.replace(
                "tie_order", "tie order")):
            SPEC_BUILDERS[kind](**{field: value})

    def test_error_names_the_field_and_the_value(self):
        with pytest.raises(ConfigurationError,
                           match=r"rate_per_hour must be a finite number "
                                 r"> 0, got nan"):
            _scenario(rate_per_hour=NAN)


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = RunSpec(strategy="zero3", size_billions=6.0, nodes=2,
                       iterations=5, faults=("switch0:down@t=1ms,dur=1ms",),
                       tie_order="seeded", tie_seed=11)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = RunSpec(strategy="ddp", size_billions=1.4).to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ConfigurationError) as err:
            RunSpec.from_dict(payload)
        assert "warp_factor" in str(err.value)

    def test_json_round_trip(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4, sanitize=True)
        reloaded = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reloaded == spec

    def test_experiment_spec_round_trip(self):
        spec = ExperimentSpec.full("fig7", iterations=12)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"experiment_id": "fig7", "bogus": 1})

    def test_replace(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        other = spec.replace(nodes=2)
        assert other.nodes == 2 and spec.nodes == 1
        assert other.cache_key() != spec.cache_key()

    def test_replace_revalidates(self):
        """Regression: replace() must re-run __post_init__ validation,
        never hand back an invalid spec."""
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        with pytest.raises(ConfigurationError):
            spec.replace(iterations=0)
        with pytest.raises(ConfigurationError):
            spec.replace(fidelity="approximate")
        with pytest.raises(ConfigurationError):
            spec.replace(size_billions=None)  # neither size nor layers

    def test_replace_rejects_unknown_fields(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        with pytest.raises(ConfigurationError, match="warp_factor"):
            spec.replace(warp_factor=9)


class TestCacheKey:
    def test_key_ignores_dict_ordering(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        payload = spec.to_dict()
        shuffled = dict(reversed(list(payload.items())))
        assert (RunSpec.from_dict(shuffled).cache_key()
                == spec.cache_key())
        assert (stable_key({"kind": "run", "spec": shuffled})
                == stable_key({"kind": "run", "spec": payload}))

    def test_key_differs_by_field(self):
        a = RunSpec(strategy="zero2", size_billions=1.4)
        assert a.cache_key() != a.replace(iterations=4).cache_key()
        assert a.cache_key() != a.replace(strategy="zero3").cache_key()

    def test_salt_invalidates(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        assert (spec.cache_key(salt="v1") != spec.cache_key(salt="v2"))
        assert spec.cache_key() == spec.cache_key(salt=default_salt())

    def test_run_and_experiment_keys_never_collide(self):
        # The kind wrapper keeps the two spec namespaces disjoint.
        run_key = RunSpec(strategy="ddp", size_billions=1.4).cache_key()
        exp_key = ExperimentSpec.quick("fig1").cache_key()
        assert run_key != exp_key

    def test_key_stable_across_process_restart(self):
        spec = RunSpec(strategy="zero3", size_billions=6.0, nodes=2)
        expected = spec.cache_key()
        script = (
            "import json, sys\n"
            "from repro.api import RunSpec\n"
            "payload = json.loads(sys.stdin.read())\n"
            "print(RunSpec.from_dict(payload).cache_key())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(spec.to_dict()), capture_output=True,
            text=True, check=True, env={"PYTHONPATH": SRC, "PATH": ""},
        )
        assert out.stdout.strip() == expected

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": float("nan")})


class TestRunSpecExecution:
    def test_run_spec_stamps_metrics(self):
        spec = RunSpec(strategy="ddp", size_billions=0.7, iterations=2)
        metrics = run_spec(spec)
        assert metrics.spec == spec
        payload = metrics_to_dict(metrics)
        assert load_run_spec(payload) == spec

    def test_run_spec_matches_kwarg_shim(self):
        from repro.core.runner import run_training
        from repro.core.search import model_for_billions
        from repro.experiments.common import cluster_for, make_strategy

        spec = RunSpec(strategy="zero2", size_billions=1.4, iterations=3)
        via_spec = run_spec(spec)
        via_kwargs = run_training(cluster_for(1), make_strategy("zero2"),
                                  model_for_billions(1.4), iterations=3)
        assert via_spec.tflops == via_kwargs.tflops
        assert via_spec.iteration_time == via_kwargs.iteration_time

    def test_unknown_strategy_fails_cleanly(self):
        spec = RunSpec(strategy="zorro9", size_billions=1.4)
        with pytest.raises(ConfigurationError):
            run_spec(spec)
