"""Tests for activation-memory fault injection."""

import numpy as np
import pytest

from repro import nn
from repro.core.campaign import CampaignConfig
from repro.core.metrics import evaluate_accuracy_arrays
from repro.core.swap import swap_activations
from repro.hw.actfaults import (
    ActivationFaultCellTask,
    ActivationFaultInjector,
    flip_activation_bits,
)
from repro.models import MLP
from tests.oracles import run_activation_campaign


class TestFlipActivationBits:
    def test_flips_expected_count(self):
        rng = np.random.default_rng(0)
        values = np.zeros(1000, dtype=np.float32)
        flips = flip_activation_bits(values, 0.01, rng)
        assert flips > 0
        # Each flip changes exactly one bit of a zero word -> non-zero words.
        assert np.count_nonzero(values) <= flips

    def test_rate_zero_noop(self):
        values = np.ones(100, dtype=np.float32)
        assert flip_activation_bits(values, 0.0, np.random.default_rng(0)) == 0
        np.testing.assert_array_equal(values, np.ones(100))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            flip_activation_bits(
                np.zeros(10, dtype=np.float64), 0.1, np.random.default_rng(0)
            )

    def test_rejects_non_contiguous(self):
        values = np.zeros((10, 10), dtype=np.float32)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            flip_activation_bits(values, 0.1, np.random.default_rng(0))

    def test_mutates_in_place(self):
        values = np.zeros((4, 4), dtype=np.float32)
        flip_activation_bits(values, 0.5, np.random.default_rng(1))
        assert np.count_nonzero(values) > 0


class TestActivationFaultInjector:
    def test_dormant_by_default(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        clean = evaluate_accuracy_arrays(trained_mlp, images, labels)
        with ActivationFaultInjector(trained_mlp) as injector:
            assert not injector.armed
            unchanged = evaluate_accuracy_arrays(trained_mlp, images, labels)
        assert unchanged == clean

    def test_session_degrades_accuracy(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        clean = evaluate_accuracy_arrays(trained_mlp, images, labels)
        with ActivationFaultInjector(trained_mlp) as injector:
            with injector.session(1e-3, rng=0):
                with np.errstate(over="ignore", invalid="ignore"):
                    faulty = evaluate_accuracy_arrays(trained_mlp, images, labels)
        assert faulty < clean

    def test_transient_no_lasting_damage(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        clean = evaluate_accuracy_arrays(trained_mlp, images, labels)
        with ActivationFaultInjector(trained_mlp) as injector:
            with injector.session(1e-2, rng=1):
                with np.errstate(over="ignore", invalid="ignore"):
                    evaluate_accuracy_arrays(trained_mlp, images, labels)
            after = evaluate_accuracy_arrays(trained_mlp, images, labels)
        assert after == clean
        for param in trained_mlp.parameters():
            assert np.isfinite(param.data).all()

    def test_layer_scoping(self, trained_mlp):
        with ActivationFaultInjector(trained_mlp, layers=["FC-1"]) as injector:
            assert injector.layer_names == ["FC-1"]
        with pytest.raises(ValueError, match="unknown layer"):
            ActivationFaultInjector(trained_mlp, layers=["CONV-1"])

    def test_nested_session_rejected(self, trained_mlp):
        with ActivationFaultInjector(trained_mlp) as injector:
            with injector.session(1e-3, rng=0):
                with pytest.raises(RuntimeError):
                    injector.session(1e-3, rng=0).__enter__()

    def test_remove_makes_inert(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        injector = ActivationFaultInjector(trained_mlp)
        injector.remove()
        clean = evaluate_accuracy_arrays(trained_mlp, images, labels)
        with injector.session(1e-2, rng=0):
            same = evaluate_accuracy_arrays(trained_mlp, images, labels)
        assert same == clean

    def test_removed_injector_leaves_the_task_crc(self, mlp_eval_arrays):
        """Hooks that come and go leave the model's pickle as it was: a
        checkpoint header written before an injector existed still resumes."""
        from repro.core.executor import WeightFaultCellTask
        from repro.hw.memory import WeightMemory
        from repro.utils.shm import pack_object

        images, labels = mlp_eval_arrays
        model = MLP(3 * 8 * 8, 10, hidden=(16,), seed=0)
        model.eval()
        task = WeightFaultCellTask(
            model, WeightMemory.from_model(model), images, labels,
            config=CampaignConfig(fault_rates=(1e-3,), trials=1),
        )
        before = pack_object(task).crc32()
        ActivationFaultInjector(model).remove()
        assert pack_object(task).crc32() == before

    def test_clipping_mitigates_activation_faults(self, trained_mlp, mlp_eval_arrays):
        """Clipped activations bound activation-memory corruption too:
        the faults land on layer outputs *before* the activation function."""
        images, labels = mlp_eval_arrays

        plain = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=0)
        plain.load_state_dict(trained_mlp.state_dict())
        plain.eval()
        clipped = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=0)
        clipped.load_state_dict(trained_mlp.state_dict())
        clipped.eval()
        swap_activations(clipped, 30.0)

        rate = 3e-4

        def mean_accuracy(model):
            values = []
            with ActivationFaultInjector(model) as injector:
                for trial in range(5):
                    with injector.session(rate, rng=trial):
                        with np.errstate(over="ignore", invalid="ignore"):
                            values.append(
                                evaluate_accuracy_arrays(model, images, labels)
                            )
            return float(np.mean(values))

        assert mean_accuracy(clipped) > mean_accuracy(plain)


class TestActivationFaultCampaign:
    """run_activation_campaign on the unified executor substrate."""

    @pytest.fixture
    def act_config(self):
        return CampaignConfig(
            fault_rates=(1e-4, 1e-3), trials=3, seed=17, batch_size=96
        )

    def test_two_workers_bit_identical_to_serial(
        self, trained_mlp, mlp_eval_arrays, act_config
    ):
        """The ISSUE's acceptance criterion for the activation path."""
        images, labels = mlp_eval_arrays
        serial = run_activation_campaign(trained_mlp, images, labels, act_config)
        parallel = run_activation_campaign(
            trained_mlp, images, labels, act_config, workers=2
        )
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
        assert serial.clean_accuracy == parallel.clean_accuracy

    def test_campaign_uses_executor_seed_paths(
        self, trained_mlp, mlp_eval_arrays, act_config
    ):
        """The campaign must reproduce a hand-rolled sweep over the
        canonical rate/<i>/trial/<j> seed derivation, cell by cell."""
        from repro.utils.rng import SeedTree

        images, labels = mlp_eval_arrays
        rates = np.asarray(act_config.fault_rates)
        expected = np.empty((rates.size, act_config.trials))
        tree = SeedTree(act_config.seed)
        with ActivationFaultInjector(trained_mlp) as injector:
            for rate_index, rate in enumerate(rates):
                for trial in range(act_config.trials):
                    rng = tree.generator(f"rate/{rate_index}/trial/{trial}")
                    with injector.session(float(rate), rng):
                        expected[rate_index, trial] = evaluate_accuracy_arrays(
                            trained_mlp, images, labels, act_config.batch_size
                        )
        curve = run_activation_campaign(trained_mlp, images, labels, act_config)
        np.testing.assert_array_equal(curve.accuracies, expected)

    def test_hooks_removed_after_campaign(
        self, trained_mlp, mlp_eval_arrays, act_config
    ):
        """The serial path instruments the caller's model; afterwards the
        model must be exactly as clean as before the campaign."""
        images, labels = mlp_eval_arrays
        clean = evaluate_accuracy_arrays(trained_mlp, images, labels)
        run_activation_campaign(trained_mlp, images, labels, act_config)
        # A lingering armed hook would perturb this evaluation.
        assert evaluate_accuracy_arrays(trained_mlp, images, labels) == clean
        # And a second campaign must see an un-instrumented model (the
        # injector rejects double instrumentation only via its session,
        # so check determinism instead).
        first = run_activation_campaign(trained_mlp, images, labels, act_config)
        second = run_activation_campaign(trained_mlp, images, labels, act_config)
        np.testing.assert_array_equal(first.accuracies, second.accuracies)

    def test_layer_scoped_campaign(self, trained_mlp, mlp_eval_arrays, act_config):
        images, labels = mlp_eval_arrays
        scoped = run_activation_campaign(
            trained_mlp, images, labels, act_config, layers=["FC-1"]
        )
        full = run_activation_campaign(trained_mlp, images, labels, act_config)
        assert scoped.accuracies.shape == full.accuracies.shape
        with pytest.raises(ValueError, match="unknown layer"):
            run_activation_campaign(
                trained_mlp, images, labels, act_config, layers=["CONV-9"]
            )

    def test_checkpoint_rejects_other_campaign_kinds(
        self, trained_mlp, mlp_eval_arrays, act_config, tmp_path
    ):
        from repro.core.campaign import run_campaign
        from repro.hw.memory import WeightMemory

        images, labels = mlp_eval_arrays
        path = tmp_path / "act.json"
        run_activation_campaign(
            trained_mlp, images, labels, act_config, checkpoint=str(path)
        )
        memory = WeightMemory.from_model(trained_mlp)
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                trained_mlp, memory, images, labels, act_config,
                checkpoint=str(path),
            )

    def test_task_pickles_without_hooks(self, trained_mlp, mlp_eval_arrays, act_config):
        import pickle

        images, labels = mlp_eval_arrays
        task = ActivationFaultCellTask(
            trained_mlp, images, labels, act_config, label="act"
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.kind == "activation-fault"
        runner = clone.make_runner()
        try:
            value = runner.run_cell(0, 0)
        finally:
            runner.close()
        assert 0.0 <= value <= 1.0
