"""Tests for the pre-trained model zoo (train-once, cache, reload)."""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.data.synthetic import SyntheticCIFAR10
from repro.models import ZooConfig, get_pretrained, train_model
from repro.utils.cache import ArtifactCache
from repro.utils.shm import pack_object

# A deliberately tiny config so zoo tests stay fast.
TINY = ZooConfig(
    model="lenet5",
    width_mult=1.0,
    n_train=300,
    n_val=80,
    n_test=80,
    epochs=5,
    batch_size=64,
    seed=7,
)


# Smaller still: one epoch on a handful of images, for the fast tier.
MINI = ZooConfig(
    model="lenet5",
    width_mult=0.25,
    n_train=64,
    n_val=16,
    n_test=16,
    epochs=1,
    batch_size=32,
    seed=7,
)


def test_cache_miss_returns_the_model_a_hit_builds(tmp_path):
    """A cold cache must not hand out the trained instance: its layers
    still hold backward caches, which change the packed model's bytes and
    so a campaign's checkpoint fingerprint between cold and warm runs."""
    cache = ArtifactCache(tmp_path)
    cold = get_pretrained(MINI, cache=cache)
    warm = get_pretrained(MINI, cache=cache)
    assert (cold.from_cache, warm.from_cache) == (False, True)
    assert not cold.model.training
    assert pack_object(cold.model).crc32() == pack_object(warm.model).crc32()
    assert cold.clean_accuracy == warm.clean_accuracy


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """An artifact cache already holding MINI's trained weights."""
    cache = ArtifactCache(tmp_path_factory.mktemp("zoo-warm"))
    get_pretrained(MINI, cache=cache)
    return cache


@pytest.fixture
def generated(monkeypatch):
    """Counts ``SyntheticCIFAR10.generate`` calls by split name."""
    counts = Counter()
    generate = SyntheticCIFAR10.generate

    def counting(self, n, split="train"):
        counts[split] += 1
        return generate(self, n, split)

    monkeypatch.setattr(SyntheticCIFAR10, "generate", counting)
    return counts


class TestLazySplits:
    """A bundle generates each data split on its first read, and once."""

    def test_warm_load_generates_nothing(self, warm_cache, generated):
        bundle = get_pretrained(MINI, cache=warm_cache)
        assert bundle.from_cache and not generated
        first = bundle.test_set
        assert bundle.test_set is first
        assert generated == {"test": 1}

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_a_suite_generates_only_its_split(self, warm_cache, generated, split):
        from repro.scenarios import CampaignSpec, ScenarioContext, run_scenarios

        spec = CampaignSpec(
            name="one", trials=1, eval_images=16, batch_size=16,
            rates=(1e-4,), split=split,
        )
        context = ScenarioContext(cache=warm_cache, bundle_overrides=MINI.to_dict())
        (result,) = run_scenarios([spec], workers=1, context=context)
        assert result.curve.accuracies.shape == (1, 1)
        assert generated == {split: 1}

    def test_cold_load_generates_each_split_once(self, tmp_path, generated):
        bundle = get_pretrained(MINI, cache=ArtifactCache(tmp_path))
        assert not bundle.from_cache
        assert generated == {"train": 1, "val": 1, "test": 1}
        bundle.train_set, bundle.val_set, bundle.test_set
        assert generated == {"train": 1, "val": 1, "test": 1}

    def test_split_bytes_equal_a_fresh_generator(self, warm_cache, tmp_path):
        generator = SyntheticCIFAR10(
            num_classes=MINI.num_classes, noise_std=MINI.noise_std, seed=MINI.seed
        )
        cold = get_pretrained(MINI, cache=ArtifactCache(tmp_path))
        warm = get_pretrained(MINI, cache=warm_cache)
        # The warm bundle reads its splits in reverse order.
        for name in ("test", "val", "train"):
            images, labels = generator.generate(getattr(MINI, f"n_{name}"), name)
            for bundle in (cold, warm):
                split = getattr(bundle, f"{name}_set")
                np.testing.assert_array_equal(split.images, images)
                np.testing.assert_array_equal(split.labels, labels)

    def test_concurrent_first_reads_generate_once(
        self, warm_cache, generated, monkeypatch
    ):
        counting = SyntheticCIFAR10.generate

        def slow(self, n, split="train"):
            time.sleep(0.02)  # widen the window a missing lock would race in
            return counting(self, n, split)

        monkeypatch.setattr(SyntheticCIFAR10, "generate", slow)
        bundle = get_pretrained(MINI, cache=warm_cache)
        barrier = threading.Barrier(8, timeout=30)
        seen = []

        def read():
            barrier.wait()
            seen.append(bundle.test_set.images)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert generated == {"test": 1}
        assert len(seen) == 8 and all(images is seen[0] for images in seen)


@pytest.mark.slow  # every test below trains (or retrains) a network
class TestTrainModel:
    def test_produces_working_model(self):
        bundle = train_model(TINY)
        assert bundle.clean_accuracy > 0.5  # far above the 0.1 chance level
        assert not bundle.from_cache
        images, _ = bundle.test_set.arrays()
        out = bundle.model(images[:4])
        assert out.shape == (4, 10)

    def test_model_left_in_eval_mode(self):
        bundle = train_model(TINY)
        assert not bundle.model.training


@pytest.mark.slow
class TestGetPretrained:
    def test_caches_and_reloads(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = get_pretrained(TINY, cache=cache)
        assert not first.from_cache
        second = get_pretrained(TINY, cache=cache)
        assert second.from_cache
        assert second.clean_accuracy == pytest.approx(first.clean_accuracy)
        # Same weights bit-for-bit.
        state_a = first.model.state_dict()
        state_b = second.model.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_config_change_invalidates_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get_pretrained(TINY, cache=cache)
        other = get_pretrained(TINY, cache=cache, seed=8)
        assert not other.from_cache

    def test_overrides_applied(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        bundle = get_pretrained(TINY, cache=cache, n_test=40)
        assert bundle.config.n_test == 40
        assert len(bundle.test_set) == 40

    def test_retrain_flag(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        get_pretrained(TINY, cache=cache)
        again = get_pretrained(TINY, cache=cache, retrain=True)
        assert not again.from_cache

    def test_datasets_deterministic_across_cache_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = get_pretrained(TINY, cache=cache)
        second = get_pretrained(TINY, cache=cache)
        a, _ = first.test_set.arrays()
        b, _ = second.test_set.arrays()
        np.testing.assert_array_equal(a, b)

    def test_name_property(self, tmp_path):
        bundle = get_pretrained(TINY, cache=ArtifactCache(tmp_path))
        assert bundle.name == "lenet5"
