"""Tests for the declarative scenario-spec subsystem (repro.scenarios).

Covers the schema (parse/serialize round-trips, validation, grid
expansion — property-tested with hypothesis), the fault-model registry
and samplers over both bit spaces, and the compiler's core contract:
a spec-driven run through one shared executor pool is bit-identical to
the equivalent direct ``run_campaign`` / ``run_quantized_campaign`` /
``run_activation_campaign`` call at workers 1 and 2.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments as experiments
from repro.models import LeNet5, ZooConfig
from repro.scenarios import (
    CAMPAIGN_KINDS,
    FAULT_MODELS,
    MITIGATION_VARIANTS,
    CampaignSpec,
    FaultModelSpec,
    ScenarioContext,
    SpecFaultSampler,
    bundled_spec_names,
    expand_entry,
    load_scenarios,
    parse_suite,
    run_scenarios,
)
from tests.helpers import shrunk

TINY = ZooConfig(
    model="lenet5",
    width_mult=1.0,
    n_train=200,
    n_val=100,
    n_test=80,
    epochs=2,
    seed=7,
)


@pytest.fixture
def tiny_configs(monkeypatch):
    monkeypatch.setitem(experiments.EXPERIMENT_CONFIGS, "lenet5", TINY)


# --------------------------------------------------------------------- #
# schema
# --------------------------------------------------------------------- #


class TestFaultModelSpec:
    def test_from_name_string(self):
        spec = FaultModelSpec.from_value("burst")
        assert spec.name == "burst" and spec.params == {}

    def test_from_mapping_splits_name_and_params(self):
        spec = FaultModelSpec.from_value({"name": "stuck_at", "value": 0})
        assert spec.name == "stuck_at" and spec.params == {"value": 0}

    def test_mapping_requires_name(self):
        with pytest.raises(ValueError, match="'name'"):
            FaultModelSpec.from_value({"value": 0})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            FaultModelSpec(name="cosmic_ray")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            FaultModelSpec(name="burst", params={"length": 8})

    def test_stuck_value_domain(self):
        with pytest.raises(ValueError, match="0 or 1"):
            FaultModelSpec(name="stuck_at", params={"value": 2})

    def test_fixed_map_requires_bits(self):
        with pytest.raises(ValueError, match="'bits'"):
            FaultModelSpec(name="fixed_map")

    def test_fixed_map_rejects_duplicate_bits(self):
        with pytest.raises(ValueError, match="unique"):
            FaultModelSpec(name="fixed_map", params={"bits": [1, 1]})

    def test_targeted_bit_name_validated(self):
        with pytest.raises(ValueError, match="unknown bit position"):
            FaultModelSpec(name="targeted_bit", params={"bit": "parity"})


class TestCampaignSpecValidation:
    def test_defaults(self):
        spec = CampaignSpec(name="s")
        assert spec.campaign == "weight"
        assert spec.variant == "unprotected"
        assert spec.fault_model.name == "random_bitflip"
        assert spec.rates[0] < spec.rates[-1]

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"name": ""}, "non-empty"),
            ({"name": "s", "model": "resnet"}, "unknown model"),
            ({"name": "s", "campaign": "voltage"}, "unknown campaign"),
            ({"name": "s", "variant": "magic"}, "unknown mitigation"),
            ({"name": "s", "rates": ()}, "non-empty"),
            ({"name": "s", "rates": (1e-4, 1e-5)}, "increasing"),
            ({"name": "s", "rates": (0.0, 1e-5)}, "positive"),
            ({"name": "s", "trials": 0}, "positive"),
            ({"name": "s", "split": "train"}, "split"),
        ],
    )
    def test_field_validation(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            CampaignSpec(**kwargs)

    def test_redundancy_requires_weight_campaign(self):
        with pytest.raises(ValueError, match="campaign 'weight'"):
            CampaignSpec(name="s", campaign="quantized", variant="ecc")

    def test_redundancy_requires_random_bitflip(self):
        with pytest.raises(ValueError, match="random_bitflip"):
            CampaignSpec(name="s", variant="tmr", fault_model="stuck_at")

    def test_fault_model_campaign_compatibility(self):
        with pytest.raises(ValueError, match="does not support"):
            CampaignSpec(name="s", campaign="activation", fault_model="stuck_at")

    def test_targeted_bit_width_checked_at_parse_time(self):
        # The campaign kind fixes the word width, so an impossible bit
        # position must fail at parse time, not mid-sweep in a worker.
        with pytest.raises(ValueError, match="8-bit"):
            CampaignSpec(
                name="s",
                campaign="quantized",
                fault_model={"name": "targeted_bit", "bit": "exponent_msb"},
            )
        with pytest.raises(ValueError, match="32-bit"):
            CampaignSpec(
                name="s", fault_model={"name": "targeted_bit", "bit": 40}
            )
        spec = CampaignSpec(
            name="s",
            campaign="quantized",
            fault_model={"name": "targeted_bit", "bit": "sign"},
        )
        assert spec.fault_model.params == {"bit": "sign"}

    def test_layers_only_for_activation(self):
        with pytest.raises(ValueError, match="activation"):
            CampaignSpec(name="s", campaign="weight", layers=("CONV-1",))
        spec = CampaignSpec(name="s", campaign="activation", layers=["CONV-1"])
        assert spec.layers == ("CONV-1",)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            CampaignSpec.from_dict({"name": "s", "fault_rate": 1e-5})

    def test_shrunk_keeps_shape_and_truncates_sweep(self):
        spec = CampaignSpec(
            name="s", fault_model="stuck_at", trials=10, eval_images=200
        )
        small = shrunk(spec, rates=2, trials=1, eval_images=16)
        assert small.fault_model == spec.fault_model
        assert small.rates == (spec.rates[0], spec.rates[-1])
        assert small.trials == 1 and small.eval_images == 16


_RATE = st.floats(1e-9, 1e-2, allow_nan=False, allow_infinity=False)


def _spec_dicts():
    """Valid (cross-field-consistent) spec mappings for round-trip tests."""
    fault_models = st.one_of(
        st.just({"name": "random_bitflip"}),
        st.builds(
            lambda v: {"name": "stuck_at", "value": v}, st.sampled_from([0, 1])
        ),
        st.builds(
            lambda n: {"name": "burst", "burst_length": n}, st.integers(1, 64)
        ),
        st.builds(
            lambda b: {"name": "targeted_bit", "bit": b},
            st.one_of(st.integers(0, 7), st.just("sign")),
        ),
    )
    return st.builds(
        lambda name, campaign, fault_model, rates, trials, seed, images: {
            "name": name,
            "campaign": campaign,
            "fault_model": fault_model,
            "rates": sorted(set(rates)),
            "trials": trials,
            "seed": seed,
            "eval_images": images,
        },
        name=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_/", min_size=1, max_size=24
        ),
        campaign=st.sampled_from(["weight", "quantized"]),
        fault_model=fault_models,
        rates=st.lists(_RATE, min_size=1, max_size=6, unique=True),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**31),
        images=st.integers(1, 500),
    )


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(payload=_spec_dicts())
    def test_to_dict_from_dict_round_trip(self, payload):
        spec = CampaignSpec.from_dict(payload)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(payload=_spec_dicts())
    def test_json_serialization_round_trip(self, payload):
        spec = CampaignSpec.from_dict(payload)
        rehydrated = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rehydrated == spec

    @settings(max_examples=30, deadline=None)
    @given(payload=_spec_dicts())
    def test_round_trip_through_suite_parser(self, payload):
        suite = parse_suite({"scenarios": [CampaignSpec.from_dict(payload).to_dict()]})
        assert suite.specs == (CampaignSpec.from_dict(payload),)


class TestGridExpansion:
    def test_no_grid_yields_single_spec(self):
        assert len(expand_entry({"name": "s"})) == 1

    def test_defaults_merge_under_entry(self):
        (spec,) = expand_entry({"name": "s", "trials": 9}, {"trials": 2, "seed": 5})
        assert spec.trials == 9 and spec.seed == 5

    def test_grid_cannot_expand_name(self):
        with pytest.raises(ValueError, match="name"):
            expand_entry({"name": "s", "grid": {"name": ["a", "b"]}})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            expand_entry({"name": "s", "grid": {"trials": []}})

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.lists(st.integers(1, 20), min_size=1, max_size=3, unique=True),
        seeds=st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True),
        campaigns=st.lists(
            st.sampled_from(["weight", "quantized"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    )
    def test_cross_product_property(self, trials, seeds, campaigns):
        specs = expand_entry(
            {
                "name": "m",
                "eval_images": 32,
                "grid": {
                    "trials": trials,
                    "seed": seeds,
                    "campaign": campaigns,
                },
            }
        )
        assert len(specs) == len(trials) * len(seeds) * len(campaigns)
        names = {spec.name for spec in specs}
        assert len(names) == len(specs)  # expansion names are unique
        combos = {(spec.trials, spec.seed, spec.campaign) for spec in specs}
        assert combos == {
            (t, s, c) for t in trials for s in seeds for c in campaigns
        }
        assert all(spec.eval_images == 32 for spec in specs)
        assert all(spec.name.startswith("m/") for spec in specs)


class TestSuiteParsing:
    def test_bare_list(self):
        suite = parse_suite([{"name": "a"}, {"name": "b"}])
        assert [spec.name for spec in suite.specs] == ["a", "b"]

    def test_single_mapping(self):
        suite = parse_suite({"name": "solo"})
        assert suite.specs[0].name == "solo"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_suite([{"name": "a"}, {"name": "a"}])

    def test_unknown_suite_key_rejected(self):
        with pytest.raises(ValueError, match="suite-level"):
            parse_suite({"scenarios": [{"name": "a"}], "worker": 2})

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            parse_suite({"scenarios": [{"name": "a"}], "workers": -1})
        assert parse_suite({"scenarios": [{"name": "a"}], "workers": 2}).workers == 2

    def test_yaml_file_round_trip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        payload = {
            "workers": 2,
            "defaults": {"trials": 4},
            "scenarios": [{"name": "s", "grid": {"seed": [1, 2]}}],
        }
        path = tmp_path / "suite.yaml"
        path.write_text(yaml.safe_dump(payload))
        suite = load_scenarios(path)
        assert suite.name == "suite" and suite.workers == 2
        assert [spec.seed for spec in suite.specs] == [1, 2]
        assert all(spec.trials == 4 for spec in suite.specs)

    def test_json_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([{"name": "a", "trials": 2}]))
        assert load_scenarios(path).specs[0].trials == 2

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "suite.toml"
        path.write_text("x = 1")
        with pytest.raises(ValueError, match="suffix"):
            load_scenarios(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenarios(tmp_path / "nope.yaml")


# --------------------------------------------------------------------- #
# fault-model samplers over both bit spaces
# --------------------------------------------------------------------- #


class TestSpecFaultSampler:
    @pytest.fixture(scope="class")
    def float_memory(self):
        from repro.hw.memory import WeightMemory

        model = LeNet5(seed=0)
        return WeightMemory.from_model(model)

    @pytest.fixture(scope="class")
    def int8_memory(self, float_memory):
        from repro.hw.quant import QuantizedWeightMemory

        return QuantizedWeightMemory(float_memory)

    def test_stuck_at_ops(self, float_memory):
        from repro.hw.faultmodels import OP_STUCK0

        sampler = SpecFaultSampler("stuck_at", {"value": 0})
        faults = sampler(float_memory, 1e-4, np.random.default_rng(0))
        assert len(faults) > 0
        assert (faults.operations == OP_STUCK0).all()

    def test_burst_budget_matches_rate(self, float_memory):
        sampler = SpecFaultSampler("burst", {"burst_length": 8})
        rate = 1e-4
        faults = sampler(float_memory, rate, np.random.default_rng(1))
        expected = round(rate * float_memory.total_bits / 8) * 8
        assert 0 < len(faults) <= expected

    def test_targeted_bit_positions_float32(self, float_memory):
        sampler = SpecFaultSampler("targeted_bit", {"bit": "exponent_msb"})
        faults = sampler(float_memory, 1e-3, np.random.default_rng(2))
        assert len(faults) == round(1e-3 * float_memory.total_words)
        assert (faults.bit_indices % 32 == 30).all()

    def test_targeted_sign_resolves_per_word_width(self, float_memory, int8_memory):
        sampler = SpecFaultSampler("targeted_bit", {"bit": "sign"})
        rng = np.random.default_rng(3)
        float_faults = sampler(float_memory, 1e-3, rng)
        int8_faults = sampler(int8_memory, 1e-3, rng)
        assert (float_faults.bit_indices % 32 == 31).all()
        assert (int8_faults.bit_indices % 8 == 7).all()

    def test_float32_field_names_rejected_for_int8(self, int8_memory):
        sampler = SpecFaultSampler("targeted_bit", {"bit": "exponent_msb"})
        with pytest.raises(ValueError, match="8-bit"):
            sampler(int8_memory, 1e-3, np.random.default_rng(4))

    def test_fixed_map_ignores_rate_and_rng(self, float_memory):
        sampler = SpecFaultSampler("fixed_map", {"bits": [1, 5, 9], "op": "stuck1"})
        first = sampler(float_memory, 1e-7, np.random.default_rng(5))
        second = sampler(float_memory, 1e-3, np.random.default_rng(99))
        assert np.array_equal(first.bit_indices, second.bit_indices)
        assert np.array_equal(first.operations, second.operations)

    def test_sampler_pickles(self):
        import pickle

        sampler = SpecFaultSampler("burst", {"burst_length": 4})
        clone = pickle.loads(pickle.dumps(sampler))
        assert clone.name == "burst" and clone.params == {"burst_length": 4}

    def test_registry_covers_all_campaign_kinds(self):
        for info in FAULT_MODELS.values():
            assert set(info.campaigns) <= set(CAMPAIGN_KINDS)
        assert set(MITIGATION_VARIANTS) >= {"unprotected", "ftclipact"}


# --------------------------------------------------------------------- #
# compiler: bit identity with the direct API, at workers 1 and 2
# --------------------------------------------------------------------- #


class TestSpecRunsMatchDirectAPI:
    def test_bit_identity_all_campaign_kinds(self, tiny_configs):
        from repro.core.campaign import CampaignConfig, run_campaign
        from repro.core.quantized import run_quantized_campaign
        from repro.experiments import clone_model
        from repro.hw.memory import WeightMemory
        from tests.oracles import run_activation_campaign

        rates, trials, seed, n_images, batch = (1e-5, 1e-4), 2, 3, 48, 32
        context = ScenarioContext()
        bundle = context.bundle("lenet5")
        images, labels = bundle.test_set.arrays()
        images, labels = images[:n_images], labels[:n_images]
        config = CampaignConfig(
            fault_rates=rates, trials=trials, seed=seed, batch_size=batch
        )

        common = dict(
            model="lenet5",
            rates=rates,
            trials=trials,
            seed=seed,
            eval_images=n_images,
            batch_size=batch,
        )
        specs = [
            CampaignSpec(name="w", campaign="weight", **common),
            CampaignSpec(
                name="s", campaign="weight", fault_model={"name": "stuck_at", "value": 1},
                **common,
            ),
            CampaignSpec(name="q", campaign="quantized", **common),
            CampaignSpec(name="a", campaign="activation", **common),
        ]

        # Direct API calls over an independent clone of the same bundle.
        model = clone_model(bundle)
        memory = WeightMemory.from_model(model)
        direct = [
            run_campaign(model, memory, images, labels, config),
            run_campaign(
                model, memory, images, labels, config,
                sampler=SpecFaultSampler("stuck_at", {"value": 1}),
            ),
            run_quantized_campaign(model, memory, images, labels, config),
            run_activation_campaign(model, images, labels, config),
        ]

        for workers in (1, 2):
            results = run_scenarios(specs, workers=workers, context=context)
            for spec, result, expected in zip(specs, results, direct):
                assert np.array_equal(
                    result.curve.accuracies, expected.accuracies
                ), f"{spec.name} diverged from the direct API at workers={workers}"
                assert result.curve.clean_accuracy == pytest.approx(
                    expected.clean_accuracy
                )

    def test_checkpoint_resumes_whole_matrix(self, tiny_configs, tmp_path):
        context = ScenarioContext()
        common = dict(
            model="lenet5", rates=(1e-5, 1e-4), trials=2, seed=5,
            eval_images=32, batch_size=32,
        )
        specs = [
            CampaignSpec(name="w", campaign="weight", **common),
            CampaignSpec(name="q", campaign="quantized", **common),
        ]
        checkpoint = tmp_path / "matrix.json"
        first = run_scenarios(specs, checkpoint=checkpoint, context=context)
        assert checkpoint.exists()

        replayed = []
        second = run_scenarios(
            specs,
            checkpoint=checkpoint,
            context=context,
            progress=lambda cell: replayed.append(cell.from_checkpoint),
        )
        assert replayed and all(replayed)  # nothing re-ran
        for before, after in zip(first, second):
            assert np.array_equal(before.curve.accuracies, after.curve.accuracies)

    def test_out_dir_writes_results_and_summary(self, tiny_configs, tmp_path):
        context = ScenarioContext()
        specs = [
            CampaignSpec(
                name="grid/x=1", model="lenet5", rates=(1e-4,), trials=1,
                eval_images=16, batch_size=16,
            )
        ]
        out = tmp_path / "out"
        results = run_scenarios(specs, context=context, out_dir=out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["count"] == 1
        (row,) = summary["scenarios"]
        assert row["name"] == "grid/x=1"
        scenario_payload = json.loads((out / row["file"]).read_text())
        assert scenario_payload["spec"]["name"] == "grid/x=1"
        assert scenario_payload["accuracies"] == results[0].curve.accuracies.tolist()

    def test_duplicate_names_rejected_at_run(self, tiny_configs):
        spec = CampaignSpec(name="dup", model="lenet5", rates=(1e-4,), trials=1)
        with pytest.raises(ValueError, match="unique"):
            run_scenarios([spec, spec])


@pytest.mark.parametrize("setting", ["workers", "supervision"])
def test_caller_owned_executor_refuses_its_own_settings(setting):
    """A caller-owned executor fixed its worker count and policy when it
    was built; a second value for either is refused, not ignored."""
    from repro.core.executor import CampaignExecutor, SupervisionPolicy

    value = {"workers": 1, "supervision": SupervisionPolicy()}[setting]
    spec = CampaignSpec(name="w", model="lenet5")
    with pytest.raises(ValueError, match="not both"):
        run_scenarios([spec], executor=CampaignExecutor(), **{setting: value})


class TestPreparedVariants:
    """Redundancy variants never modify the model, so both context kinds
    compile them onto the unprotected clone with their own sampler."""

    @pytest.mark.parametrize("kind", ["scenario", "slot"])
    def test_redundancy_variants_share_the_unprotected_clone(self, kind):
        import threading

        from repro.hw.ecc import ECCFilter
        from repro.hw.tmr import DMRFilter, TMRFilter
        from repro.scenarios import smoke_context
        from repro.service.daemon import _SlotContext

        context = smoke_context()
        if kind == "slot":
            context = _SlotContext(context, threading.RLock())
        clone, sampler = context.prepared("lenet5", "unprotected")
        assert sampler is None
        filters = {"ecc": ECCFilter, "tmr": TMRFilter, "dmr": DMRFilter}
        for variant, filter_type in filters.items():
            model, sampler = context.prepared("lenet5", variant)
            assert model is clone
            assert type(sampler.filter) is filter_type
        relu6, _ = context.prepared("lenet5", "relu6")
        assert relu6 is not clone


class TestBundledRegistry:
    def test_names_are_sorted_and_nonempty(self):
        names = bundled_spec_names()
        assert names == sorted(names) and names

    def test_unknown_bundled_name(self):
        from repro.scenarios import bundled_spec_path

        with pytest.raises(KeyError, match="no bundled"):
            bundled_spec_path("does_not_exist")
