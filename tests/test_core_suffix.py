"""Suffix re-execution engine: bit-identity, budgets, and the perf floor.

The engine (:mod:`repro.core.suffix`) is pure execution machinery — every
campaign result must be bit-identical with it on or off, at any worker
count, under any memory budget.  These tests pin that contract:

* a registry-wide hypothesis property test (model x cut layer x batch
  size x fault seed) asserting suffix re-execution equals the full
  forward bit for bit in eval mode;
* graceful full-forward fallback when the activation cache exceeds the
  memory budget;
* the determinism matrix: layerwise sweeps with the engine on/off and
  workers 1/2 produce identical curves, and checkpoint resume behaves
  identically with the engine on;
* a fast-tier timing smoke: on LeNet-5, a campaign scoped to the deepest
  layer must not be slower with the engine than without it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.executor import CampaignExecutor, WeightFaultCellTask
from repro.core.suffix import SuffixForwardEngine, suffix_budget_bytes
from repro.data import SyntheticCIFAR10
from repro.hw.faultmodels import RandomBitFlip
from repro.hw.injector import FaultInjector
from repro.hw.memory import WeightMemory
from repro.models import LeNet5
from repro.models.registry import MODEL_BUILDERS, build_model, layer_names


# Small instantiations of every registered architecture: the property
# test sweeps the whole registry, so keep each forward pass in
# milliseconds.  Built once per session (module-level lazy cache).
_IMAGE_SIZE = 16
_EVAL_IMAGES = 24
_MODEL_CACHE: dict = {}


def _model_and_images(name: str):
    if name not in _MODEL_CACHE:
        if name == "mlp":
            model = build_model(name, seed=0)
            images = SyntheticCIFAR10(seed=5).generate(_EVAL_IMAGES, "test")[0]
        else:
            model = MODEL_BUILDERS[name](
                num_classes=10, width_mult=0.1, seed=0
            )
            images = SyntheticCIFAR10(seed=5).generate(_EVAL_IMAGES, "test")[0]
        model.eval()
        _MODEL_CACHE[name] = (model, images)
    return _MODEL_CACHE[name]


class TestForwardFromAndCollect:
    def test_forward_from_zero_equals_forward(self):
        model, images = _model_and_images("lenet5")
        np.testing.assert_array_equal(model(images), model.forward_from(0, images))

    def test_collect_then_forward_from_any_boundary(self):
        model, images = _model_and_images("lenet5")
        full, captured = model.forward_collect(images, range(len(model)))
        np.testing.assert_array_equal(full, model(images))
        for index, tensor in captured.items():
            np.testing.assert_array_equal(full, model.forward_from(index, tensor))

    def test_collect_out_of_range_rejected(self):
        model, images = _model_and_images("lenet5")
        with pytest.raises(IndexError):
            model.forward_collect(images, [len(model)])

    def test_forward_from_out_of_range_rejected(self):
        model, images = _model_and_images("lenet5")
        with pytest.raises(IndexError):
            model.forward_from(len(model), images)

    def test_forward_from_fires_child_hooks(self):
        model, images = _model_and_images("lenet5")
        seen = []
        handle = model[-1].register_forward_hook(
            lambda module, x, out: seen.append(out.shape)
        )
        try:
            model.forward_from(len(model) - 1, model.forward_collect(
                images, [len(model) - 1]
            )[1][len(model) - 1])
        finally:
            handle.remove()
        assert seen and seen[0][0] == images.shape[0]


class TestSuffixBitIdentity:
    """The engine's core contract, over the whole model registry."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODEL_BUILDERS)),
        layer_pick=st.integers(0, 10**6),
        batch_size=st.sampled_from((7, 16, 24)),
        seed=st.integers(0, 1000),
    )
    def test_suffix_equals_full_forward_under_faults(
        self, name, layer_pick, batch_size, seed
    ):
        """model x cut layer x batch: faulted suffix == faulted full pass."""
        model, images = _model_and_images(name)
        layers = layer_names(model)
        layer = layers[layer_pick % len(layers)]
        memory = WeightMemory.from_model(model, layers=[layer])
        engine = SuffixForwardEngine.build(
            model, images, batch_size, scope_layers=memory.layer_names()
        )
        assert engine is not None
        injector = FaultInjector(memory)
        fault_set = RandomBitFlip(2e-4).sample(
            memory, np.random.default_rng(seed)
        )
        affected = injector.affected_layers(fault_set)
        assert set(affected) <= {layer}
        with injector.apply(fault_set):
            forward = engine.forward_fn(affected)
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, images.shape[0], batch_size):
                    batch = images[start : start + batch_size]
                    full = model(batch)
                    if forward is None:
                        continue  # legitimate fallback: still the full path
                    np.testing.assert_array_equal(forward(batch, start), full)

    def test_zero_fault_cells_replay_clean_logits(self):
        model, images = _model_and_images("lenet5")
        memory = WeightMemory.from_model(model)
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names()
        )
        forward = engine.forward_fn([])
        np.testing.assert_array_equal(forward(images[:16], 0), model(images[:16]))
        assert engine.stats["cells_clean_shortcut"] == 1

    def test_unknown_batch_offset_falls_back_to_full_forward(self):
        model, images = _model_and_images("lenet5")
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=["FC-3"]
        )
        forward = engine.forward_fn(["FC-3"])
        odd = images[3:19]  # offset 3 is not a batch start
        np.testing.assert_array_equal(forward(odd, 3), model(odd))
        assert engine.stats["batches_full"] == 1


class TestMemoryBudget:
    def test_zero_budget_caches_nothing_but_stays_correct(self):
        """Cache over budget => graceful full-forward fallback."""
        model, images = _model_and_images("lenet5")
        memory = WeightMemory.from_model(model, layers=["FC-3"])
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names(), budget_bytes=0
        )
        # The clean shortcut keeps the engine alive, but no boundary fits.
        assert engine is not None
        assert engine.cached_indices == []
        assert engine.stats["cached_bytes"] == 0
        assert engine.forward_fn(["FC-3"]) is None  # falls back to full
        np.testing.assert_array_equal(
            engine.forward_fn([])(images[:16], 0), model(images[:16])
        )

    def test_budget_prefers_deepest_boundaries(self):
        model, images = _model_and_images("lenet5")
        memory = WeightMemory.from_model(model)
        full = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names()
        )
        assert len(full.cached_indices) > 1
        deepest_bytes = sum(
            batch[full.cached_indices[-1]].nbytes for batch in full._cached
        )
        tight = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names(),
            budget_bytes=deepest_bytes + 1,
        )
        assert tight.cached_indices == [full.cached_indices[-1]]

    def test_budget_env_var_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUFFIX_BUDGET_MB", "2")
        assert suffix_budget_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_SUFFIX_BUDGET_MB", " ")
        assert suffix_budget_bytes() == 256 * 1024 * 1024

    def test_budget_env_var_misparse_names_variable(self, monkeypatch):
        """A typo must not silently fall back to the 256 MB default."""
        monkeypatch.setenv("REPRO_SUFFIX_BUDGET_MB", "12O")
        with pytest.raises(ValueError, match="REPRO_SUFFIX_BUDGET_MB.*'12O'"):
            suffix_budget_bytes()

    def test_activation_static_cut_engine_skipped_without_cache(self):
        """No clean shortcut + nothing cached => no engine at all."""
        model, images = _model_and_images("lenet5")
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=["FC-3"],
            budget_bytes=0, clean_shortcut=False,
        )
        assert engine is None

    def test_global_disable_env(self, monkeypatch):
        model, images = _model_and_images("lenet5")
        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
        assert (
            SuffixForwardEngine.build(model, images, 16, scope_layers=["FC-3"])
            is None
        )


class TestDeterminismMatrix:
    """Engine on/off x workers 1/2: identical curves and resume behavior."""

    @pytest.fixture()
    def parts(self, trained_mlp, mlp_eval_arrays):
        images, labels = mlp_eval_arrays
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=2, seed=11)
        return trained_mlp, images, labels, config

    def test_layerwise_matrix(self, parts):
        from repro.analysis.layerwise import run_layerwise_analysis

        model, images, labels, config = parts
        baseline = run_layerwise_analysis(
            model, images, labels, config, suffix=False
        )
        for workers in (1, 2):
            result = run_layerwise_analysis(
                model, images, labels, config, workers=workers, suffix=True
            )
            assert result.ordered_layers() == baseline.ordered_layers()
            for layer, curve in result.curves.items():
                np.testing.assert_array_equal(
                    curve.accuracies, baseline.curves[layer].accuracies
                )
                assert (
                    curve.clean_accuracy == baseline.curves[layer].clean_accuracy
                )

    def test_layerwise_parallel_with_engine_globally_off(self, parts, monkeypatch):
        """REPRO_NO_SUFFIX reaches worker processes (the parallel off-switch)."""
        from repro.analysis.layerwise import run_layerwise_analysis

        model, images, labels, config = parts
        baseline = run_layerwise_analysis(
            model, images, labels, config, layers=["FC-1"], suffix=False
        )
        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
        result = run_layerwise_analysis(
            model, images, labels, config, layers=["FC-1"], workers=2
        )
        np.testing.assert_array_equal(
            result.curves["FC-1"].accuracies, baseline.curves["FC-1"].accuracies
        )

    def test_checkpoint_resume_with_suffix(self, parts, tmp_path):
        model, images, labels, config = parts
        memory = WeightMemory.from_model(model, layers=["FC-1"])
        path = tmp_path / "suffix.json"
        baseline = run_campaign(
            model, memory, images, labels, config, suffix=False
        )
        first = run_campaign(
            model, memory, images, labels, config, checkpoint=str(path)
        )
        np.testing.assert_array_equal(first.accuracies, baseline.accuracies)
        # Resuming a fully-checkpointed sweep recomputes nothing and
        # reproduces the same curve, engine on or off.
        for suffix in (True, False):
            resumed = run_campaign(
                model, memory, images, labels, config,
                checkpoint=str(path), suffix=suffix,
            )
            np.testing.assert_array_equal(resumed.accuracies, baseline.accuracies)


class TestTimingSmoke:
    def test_suffix_not_slower_on_lenet_deep_cut(self):
        """Fast-tier perf floor: the engine must pay for its clean pass.

        A LeNet-5 campaign scoped to the deepest FC layer re-executes
        ~5% of the network per cell; even with the one-time clean pass it
        must beat the full-forward path over a handful of cells.  A perf
        regression in the engine fails here, inside ``make fast``.
        """
        model = LeNet5(seed=0)
        model.eval()
        images, labels = SyntheticCIFAR10(seed=3).generate(128, "test")
        memory = WeightMemory.from_model(model, layers=["FC-3"])
        config = CampaignConfig(
            fault_rates=(1e-4, 3e-4), trials=4, seed=5, batch_size=64
        )

        def run_cells(suffix: bool) -> tuple[float, np.ndarray]:
            task = WeightFaultCellTask(
                model, memory, images, labels, config=config, suffix=suffix
            )
            # Time runner construction too: the engine's one-time clean
            # pass is exactly the cost it must amortise to win here.
            start = time.perf_counter()
            runner = task.make_runner()
            try:
                values = np.asarray(
                    [
                        runner.run_cell(rate_index, trial)
                        for rate_index in range(len(config.fault_rates))
                        for trial in range(config.trials)
                    ]
                )
                return time.perf_counter() - start, values
            finally:
                runner.close()

        full_seconds, full_values = run_cells(suffix=False)
        suffix_seconds, suffix_values = run_cells(suffix=True)
        np.testing.assert_array_equal(suffix_values, full_values)
        assert suffix_seconds <= full_seconds, (
            f"suffix engine slower than full forward: "
            f"{suffix_seconds:.3f}s vs {full_seconds:.3f}s"
        )


class TestSharedSuffixCache:
    """One clean pass per host: exported caches rebuild engines exactly."""

    def _engine_parts(self):
        model = LeNet5(seed=0)
        model.eval()
        images, _ = SyntheticCIFAR10(seed=5).generate(48, "test")
        memory = WeightMemory.from_model(model)
        return model, images, memory

    def test_export_import_is_bit_identical(self):
        import pickle

        from repro.core.suffix import shared_cache

        model, images, memory = self._engine_parts()
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names()
        )
        cache = engine.export_cache()
        assert cache is not None

        # A bit-exact sibling (what a worker deserializes) + the cache.
        sibling = pickle.loads(pickle.dumps(model))
        with shared_cache(cache):
            shared = SuffixForwardEngine.build(
                sibling, images, 16, scope_layers=memory.layer_names()
            )
        assert shared.stats["from_shared_cache"] is True
        assert shared.cached_indices == engine.cached_indices

        # Suffix forwards from every cached boundary agree bit for bit.
        for layer in memory.layer_names():
            local_fn = engine.forward_fn([layer])
            shared_fn = shared.forward_fn([layer])
            assert (local_fn is None) == (shared_fn is None)
            if local_fn is None:
                continue
            for start in range(0, images.shape[0], 16):
                batch = images[start : start + 16]
                np.testing.assert_array_equal(
                    local_fn(batch, start), shared_fn(batch, start)
                )
        # The clean shortcut replays identical logits too.
        for start in range(0, images.shape[0], 16):
            batch = images[start : start + 16]
            np.testing.assert_array_equal(
                engine.forward_fn([])(batch, start),
                shared.forward_fn([])(batch, start),
            )

    def test_incompatible_cache_is_ignored(self):
        from repro.core.suffix import shared_cache

        model, images, memory = self._engine_parts()
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names()
        )
        cache = engine.export_cache()
        with shared_cache(cache):
            # Different batching: the offer must be declined, not misused.
            rebuilt = SuffixForwardEngine.build(
                model, images, 24, scope_layers=memory.layer_names()
            )
        assert rebuilt.stats["from_shared_cache"] is False

    def test_none_offer_is_a_noop(self):
        from repro.core.suffix import shared_cache

        model, images, memory = self._engine_parts()
        with shared_cache(None):
            engine = SuffixForwardEngine.build(
                model, images, 16, scope_layers=memory.layer_names()
            )
        assert engine.stats["from_shared_cache"] is False

    def test_closed_engine_exports_nothing(self):
        model, images, memory = self._engine_parts()
        engine = SuffixForwardEngine.build(
            model, images, 16, scope_layers=memory.layer_names()
        )
        engine.close()
        assert engine.export_cache() is None

    def test_executor_publishes_caches_for_pending_tasks(self):
        """_export_suffix_caches packs one cache per pending task."""
        from repro.core.executor import _export_suffix_caches
        from repro.utils.shm import PackedUnit

        model, images, memory = self._engine_parts()
        labels = np.zeros(images.shape[0], dtype=np.int64)
        config = CampaignConfig(fault_rates=(1e-4,), trials=1, seed=3)
        tasks = [
            WeightFaultCellTask(model, memory, images, labels, config=config)
            for _ in range(2)
        ]
        caches = _export_suffix_caches(tasks, [[(0, 0)], []])
        assert sorted(caches) == [0]  # only the pending task publishes
        assert isinstance(caches[0], PackedUnit)
        assert len(caches[0].buffers) > 0  # activations ship out-of-band

    def test_export_respects_global_disable(self, monkeypatch):
        from repro.core.executor import _export_suffix_caches

        monkeypatch.setenv("REPRO_NO_SUFFIX", "1")
        model, images, memory = self._engine_parts()
        labels = np.zeros(images.shape[0], dtype=np.int64)
        config = CampaignConfig(fault_rates=(1e-4,), trials=1, seed=3)
        task = WeightFaultCellTask(model, memory, images, labels, config=config)
        assert _export_suffix_caches([task], [[(0, 0)]]) == {}
