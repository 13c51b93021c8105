"""Tests for the pre-trained model zoo (train-once, cache, reload)."""

import numpy as np
import pytest

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
