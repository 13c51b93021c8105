"""Tests for the pre-trained model zoo (train-once, cache, reload)."""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.data.synthetic import SplitStream, SyntheticCIFAR10
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
    """Counts split streams opened (``SplitStream``) by split name.

    Every split is read through its stream, whether whole
    (``generate``, ``train_set``) or as a prefix (``bundle.prefix``).
    """
    counts = Counter()
    init = SplitStream.__init__

    def counting(self, source, n, split):
        counts[split] += 1
        init(self, source, n, split)

    monkeypatch.setattr(SplitStream, "__init__", counting)
    return counts


@pytest.fixture
def samples(monkeypatch):
    """Counts ``SyntheticCIFAR10.generate_sample`` calls (images drawn)."""
    calls = []
    generate_sample = SyntheticCIFAR10.generate_sample

    def counting(self, label, rng):
        calls.append(label)
        return generate_sample(self, label, rng)

    monkeypatch.setattr(SyntheticCIFAR10, "generate_sample", counting)
    return calls


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
        self, warm_cache, generated, samples, monkeypatch
    ):
        """Eight threads read different prefix counts of one shared
        split: each sample is drawn once and every thread sees the
        whole split's rows."""
        counting = SyntheticCIFAR10.generate_sample

        def slow(self, label, rng):
            time.sleep(0.002)  # widen the window a missing lock would race in
            return counting(self, label, rng)

        monkeypatch.setattr(SyntheticCIFAR10, "generate_sample", slow)
        bundle = get_pretrained(MINI, cache=warm_cache)
        counts = [5, 16, 3, 9, 1, 12, 16, 7]
        barrier = threading.Barrier(len(counts), timeout=30)
        seen = {}

        def read(count):
            barrier.wait()
            seen[count] = [array.copy() for array in bundle.prefix("test", count)]

        threads = [threading.Thread(target=read, args=(k,)) for k in counts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert generated == {"test": 1}
        assert len(samples) == MINI.n_test  # before the reference below
        images, labels = _fresh_split("test", MINI.n_test)
        assert sorted(seen) == sorted(set(counts))
        for count, (prefix_images, prefix_labels) in seen.items():
            np.testing.assert_array_equal(prefix_images, images[:count])
            np.testing.assert_array_equal(prefix_labels, labels[:count])
        assert bundle.test_set.images.__array_interface__["data"] == (
            bundle.prefix("test", 3)[0].__array_interface__["data"]
        )


def _fresh_split(split, n, config=MINI):
    generator = SyntheticCIFAR10(
        num_classes=config.num_classes, noise_std=config.noise_std,
        seed=config.seed,
    )
    return generator.generate(n, split)


class TestSplitPrefixes:
    """A run synthesizes only the images it reads, and they are the
    whole split's first rows."""

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_every_prefix_is_the_whole_splits_first_rows(self, split):
        generator = SyntheticCIFAR10(image_size=8, seed=3)
        n = 12
        images, labels = generator.generate(n, split)
        # The reference: the whole split drawn in one loop, stacked.
        rng = generator._tree.generator(f"split/{split}")
        reference = np.arange(n, dtype=np.int64) % generator.num_classes
        rng.shuffle(reference)
        stacked = np.stack([generator.generate_sample(int(y), rng) for y in reference])
        assert images.tobytes() == stacked.tobytes()
        np.testing.assert_array_equal(labels, reference)
        for k in range(1, n + 1):
            prefix_images, prefix_labels = SplitStream(generator, n, split).take(k)
            assert prefix_images.tobytes() == images[:k].tobytes()
            np.testing.assert_array_equal(prefix_labels, labels[:k])
        # A k-image split shuffles k labels: a different dataset.
        assert generator.generate(5, split)[1].tolist() != labels[:5].tolist()

    def test_counts_read_out_of_order_give_the_same_bytes(self):
        generator = SyntheticCIFAR10(image_size=8, seed=3)
        images, labels = generator.generate(12, "val")
        stream = SplitStream(generator, 12, "val")
        for k in (5, 3, 12, 7, 5):
            prefix_images, prefix_labels = stream.take(k)
            assert prefix_images.tobytes() == images[:k].tobytes()
            np.testing.assert_array_equal(prefix_labels, labels[:k])

    @pytest.mark.parametrize("k", [0, -1, 13])
    def test_a_count_outside_the_split_is_refused(self, k):
        stream = SplitStream(SyntheticCIFAR10(image_size=8, seed=3), 12, "val")
        with pytest.raises(
            ValueError, match=f"wants {k} eval images but the val split holds 12"
        ):
            stream.take(k)

    def test_a_spec_synthesizes_only_its_eval_images(self, tmp_path, samples):
        from repro.scenarios import CampaignSpec, ScenarioContext
        from repro.scenarios.compile import compile_spec

        config = dict(MINI.to_dict(), n_test=64)
        get_pretrained(ZooConfig(**config), cache=ArtifactCache(tmp_path))
        samples.clear()
        context = ScenarioContext(
            cache=ArtifactCache(tmp_path), bundle_overrides=config
        )
        spec = CampaignSpec(
            name="one", trials=1, eval_images=16, batch_size=16, rates=(1e-4,)
        )
        task = compile_spec(spec, context)
        assert len(samples) == 16
        images, labels = _fresh_split("test", 64, ZooConfig(**config))
        assert task.images.tobytes() == images[:16].tobytes()
        np.testing.assert_array_equal(task.labels, labels[:16])

    def test_equal_counts_share_one_images_array(self, warm_cache):
        from repro.scenarios import CampaignSpec, ScenarioContext
        from repro.scenarios.compile import compile_spec

        context = ScenarioContext(cache=warm_cache, bundle_overrides=MINI.to_dict())
        specs = [
            CampaignSpec(
                name=f"s{index}", trials=1, eval_images=count, batch_size=8,
                rates=(1e-4,), seed=index,
            )
            for index, count in enumerate((8, 16, 8))
        ]
        first, whole, again = (compile_spec(spec, context) for spec in specs)
        assert first.clean_pass_key() == again.clean_pass_key()
        assert first.clean_pass_key() != whole.clean_pass_key()
        assert np.shares_memory(first.images, whole.images)

    def test_a_mixed_count_pooled_suite_exports_one_cache_per_count(
        self, warm_cache, monkeypatch
    ):
        from repro import nn
        from repro.scenarios import CampaignSpec, ScenarioContext, run_scenarios

        context = ScenarioContext(cache=warm_cache, bundle_overrides=MINI.to_dict())
        specs = [
            CampaignSpec(
                name=f"s{index}", trials=2, eval_images=count, batch_size=8,
                rates=(1e-4, 1e-3), seed=index,
            )
            for index, count in enumerate((8, 16, 8))
        ]
        serial = run_scenarios(specs, workers=1, context=context)
        collected = []
        collect = nn.Sequential.forward_collect

        def counting(module, x, *args, **kwargs):
            collected.append(x.shape[0])
            return collect(module, x, *args, **kwargs)

        monkeypatch.setattr(nn.Sequential, "forward_collect", counting)
        pooled = run_scenarios(specs, workers=2, context=context)
        # One 8-image pass (1 batch) and one 16-image pass (2 batches).
        assert collected == [8, 8, 8]
        for left, right in zip(serial, pooled):
            np.testing.assert_array_equal(
                left.curve.accuracies, right.curve.accuracies
            )


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
