"""Edge-case tests across modules (paths not covered by the main suites)."""

import numpy as np
import pytest

from repro import nn
from repro.core.swap import find_activation_sites, swap_activations
from repro.data import ArrayDataset, DataLoader
from repro.hw.faultmodels import FaultSet, RandomBitFlip
from repro.hw.injector import FaultInjector
from repro.hw.memory import WeightMemory
from repro.models import LeNet5
from tests.helpers import weight_memory


class TestNestedContainers:
    def _nested_model(self):
        """Conv stack and classifier head as nested Sequentials."""
        features = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, seed=0),
            nn.ReLU(),
            nn.MaxPool2d(2),
        )
        head = nn.Sequential(
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 8, seed=1),
            nn.ReLU(),
            nn.Linear(8, 2, seed=2),
        )
        return nn.Sequential(features, head)

    def test_sites_found_through_nesting(self):
        sites = find_activation_sites(self._nested_model())
        assert [s.layer_name for s in sites] == ["CONV-1", "FC-1"]

    def test_swap_through_nesting(self):
        model = self._nested_model()
        result = swap_activations(model, 3.0)
        assert result.replaced == 2
        x = np.random.default_rng(0).random((2, 3, 8, 8)).astype(np.float32)
        assert model(x).shape == (2, 2)

    def test_weight_memory_through_nesting(self):
        model = self._nested_model()
        memory = WeightMemory.from_model(model)
        assert memory.layer_names() == ["CONV-1", "FC-1", "FC-2"]

    def test_state_dict_through_nesting(self):
        model = self._nested_model()
        other = self._nested_model()
        other.load_state_dict(model.state_dict())
        x = np.ones((1, 3, 8, 8), dtype=np.float32)
        model.eval(), other.eval()
        np.testing.assert_array_equal(model(x), other(x))


class TestInjectorAcrossRegions:
    def test_faults_spanning_region_boundary(self):
        """One fault set hitting several parameters restores exactly."""
        params = [
            ("a", nn.Parameter(np.ones(4, dtype=np.float32))),
            ("b", nn.Parameter(np.full(4, 2.0, dtype=np.float32))),
            ("c", nn.Parameter(np.full(4, 3.0, dtype=np.float32))),
        ]
        memory = weight_memory(params)
        injector = FaultInjector(memory)
        originals = [p.data.copy() for _, p in params]
        # Last bit of region a, first of b, middle of c.
        bits = np.asarray([4 * 32 - 1, 4 * 32, 2 * 4 * 32 + 50])
        with injector.apply(FaultSet.flips(bits)) as record:
            assert [
                region.layer_name for region, words, _ in record.saved if words.size
            ] == ["a", "b", "c"]
            for (_, param), original in zip(params, originals):
                assert not np.array_equal(param.data, original)
        for (_, param), original in zip(params, originals):
            np.testing.assert_array_equal(param.data, original)

    def test_scoped_memory_never_touches_other_layers(self):
        model = LeNet5(seed=0)
        conv1_memory = WeightMemory.from_model(model, layers=["CONV-1"])
        injector = FaultInjector(conv1_memory)
        fc1 = dict(model.named_modules())["7"]  # Linear FC-1
        before = fc1.weight.data.copy()
        with injector.session(RandomBitFlip(0.05), rng=0):
            np.testing.assert_array_equal(fc1.weight.data, before)


class TestWeightMemoryEdges:
    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            WeightMemory.from_model(LeNet5(seed=0), layers=[])

    def test_single_parameter_memory(self):
        param = nn.Parameter(np.zeros(1, dtype=np.float32))
        memory = weight_memory([("only", param)])
        assert memory.total_bits == 32
        located = memory.locate(np.asarray([31]))
        assert located[0][2][0] == 31


class TestDataLoaderEdges:
    def test_drop_last_with_shuffle_covers_subset(self):
        images = np.arange(10, dtype=np.float32).reshape(10, 1, 1, 1)
        labels = np.arange(10, dtype=np.int64)
        loader = DataLoader(
            ArrayDataset(images, labels), batch_size=4, shuffle=True,
            drop_last=True, seed=0,
        )
        batches = list(loader)
        assert len(batches) == 2
        seen = np.concatenate([b[1] for b in batches])
        assert np.unique(seen).size == 8  # distinct samples, two dropped

    def test_batch_size_larger_than_dataset(self):
        images = np.zeros((3, 1, 1, 1), dtype=np.float32)
        labels = np.zeros(3, dtype=np.int64)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=100)
        (batch_images, batch_labels), = list(loader)
        assert batch_images.shape[0] == 3


class TestModuleEdges:
    def test_module_without_parameters_state_dict_empty(self):
        assert nn.Flatten().state_dict() == {}

    def test_load_empty_state_dict(self):
        flat = nn.Flatten()
        flat.load_state_dict({})  # no error

    def test_parameter_overwrite_by_module(self):
        """Reassigning an attribute from Parameter to Module re-registers."""

        class Holder(nn.Module):
            def __init__(self):
                super().__init__()
                self.slot = nn.Parameter(np.zeros(2))

        holder = Holder()
        holder.slot = nn.ReLU()
        assert dict(holder.named_parameters()) == {}
        assert isinstance(dict(holder.named_children())["slot"], nn.ReLU)


class TestCampaignBatchInvariance:
    def test_results_independent_of_batch_size(self, trained_mlp, mlp_eval_arrays):
        from repro.core.campaign import CampaignConfig, run_campaign

        images, labels = mlp_eval_arrays
        memory = WeightMemory.from_model(trained_mlp)
        base = dict(fault_rates=(1e-3,), trials=3, seed=5)
        a = run_campaign(
            trained_mlp, memory, images, labels, CampaignConfig(batch_size=7, **base)
        )
        b = run_campaign(
            trained_mlp, memory, images, labels, CampaignConfig(batch_size=96, **base)
        )
        np.testing.assert_allclose(a.accuracies, b.accuracies, atol=1e-12)
