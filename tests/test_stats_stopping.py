"""Statistical correctness of the adaptive stopping machinery.

Everything here is a fixed-seed, pure-numpy simulation — no models, no
executor — checking the *statistics* behind ``repro.core.batched``:

* the 95% Wilson interval achieves near-nominal coverage over its
  intended (p, n) regime, and its stdlib normal quantile agrees with
  scipy's to ~1e-14 (scipy is a test-only oracle: the tests that use it
  skip without it);
* the sequential stopping rule (interval check at chunk boundaries,
  minimum two trials) keeps useful coverage despite optional stopping,
  stops earlier than the trials ceiling when the tolerance allows, and
  is a deterministic function of its inputs;
* the importance-sampled estimator is unbiased: ``E_q[w] = 1`` and
  ``E_q[w f] = E_p[f]`` within Monte-Carlo tolerance.

Run just this tier with ``make stats`` (or ``pytest -m stats``); it is
fast enough to ride inside ``make fast`` as well.
"""

import math

import numpy as np
import pytest

from repro.core.batched import (
    ImportanceBitflipSampler,
    _norm_ppf,
    family_interval,
    wilson_interval,
)

pytestmark = pytest.mark.stats

try:
    from scipy import stats as scipy_stats
except ImportError:  # a plain install: only the oracle tests skip
    scipy_stats = None

needs_scipy = pytest.mark.skipif(
    scipy_stats is None, reason="scipy is the test-only oracle"
)


# --------------------------------------------------------------------- #
# interval coverage
# --------------------------------------------------------------------- #

# (true p, trials) pairs spanning the campaign regime: mid proportions,
# the near-1 accuracies of low fault rates, and small counts.
COVERAGE_GRID = [(0.5, 50), (0.9, 100), (0.98, 200), (0.75, 20)]


def _exact_coverage(interval, p, n):
    """Noise-free coverage: sum binomial pmf over covering counts."""
    pmf = scipy_stats.binom.pmf(np.arange(n + 1), n, p)
    return float(
        sum(
            weight
            for k, weight in enumerate(pmf)
            if interval(k, n)[0] <= p <= interval(k, n)[1]
        )
    )


@needs_scipy
class TestIntervalCoverage:
    def test_wilson_coverage_near_nominal(self):
        for p, n in COVERAGE_GRID:
            coverage = _exact_coverage(wilson_interval, p, n)
            # Wilson oscillates around nominal (exact coverage on this
            # grid sits at 0.933-0.937); it must not dip far below.
            assert coverage >= 0.93, (p, n, coverage)


class TestStdlibQuantiles:
    """The runtime normal quantile is stdlib code; scipy checks it far
    inside any stopping tolerance (measured maximum on this grid:
    8.9e-16)."""

    @needs_scipy
    def test_norm_ppf_matches_scipy(self):
        for q in np.linspace(0.0005, 0.9995, 199):
            expected = float(scipy_stats.norm.ppf(q))
            assert abs(_norm_ppf(float(q)) - expected) < 1e-14, q

    def test_norm_ppf_rejects_out_of_range(self):
        for q in (0.0, 1.0, -0.25, 1.5):
            with pytest.raises(ValueError, match="quantile must be in"):
                _norm_ppf(q)


# --------------------------------------------------------------------- #
# the sequential stopping rule
# --------------------------------------------------------------------- #

N_IMAGES = 96
MAX_TRIALS = 12
CHUNK = 2
TOLERANCE = 0.04


def _simulate_family(p, rng):
    """One family under the exact stopping rule the runner implements:
    grow in chunks, stop once >= 2 trials and halfwidth <= tolerance."""
    accuracies = []
    while len(accuracies) < MAX_TRIALS:
        for _ in range(min(CHUNK, MAX_TRIALS - len(accuracies))):
            accuracies.append(rng.binomial(N_IMAGES, p) / N_IMAGES)
        estimate, halfwidth = family_interval(accuracies, N_IMAGES)
        if len(accuracies) >= 2 and halfwidth <= TOLERANCE:
            break
    return estimate, halfwidth, len(accuracies)


class TestSequentialStopping:
    def test_stops_early_and_keeps_coverage(self):
        rng = np.random.default_rng(2020)
        for p in (0.9, 0.75, 0.5):
            hits, executed = 0, 0
            for _ in range(600):
                estimate, halfwidth, n_trials = _simulate_family(p, rng)
                hits += abs(estimate - p) <= halfwidth
                executed += n_trials
            coverage = hits / 600
            mean_trials = executed / 600
            # Optional stopping costs some coverage versus the fixed-n
            # interval; the rule must stay in the useful range.
            assert coverage >= 0.88, (p, coverage)
            # And it must actually save work versus the ceiling.
            assert mean_trials < MAX_TRIALS, (p, mean_trials)

    def test_low_variance_families_stop_at_minimum(self):
        rng = np.random.default_rng(0)
        # p extreme: halfwidth after 2 trials of 96 images is tiny.
        _, halfwidth, n_trials = _simulate_family(0.999, rng)
        assert n_trials == 2
        assert halfwidth <= TOLERANCE

    def test_stopping_is_deterministic(self):
        a = [_simulate_family(0.8, np.random.default_rng(5)) for _ in range(20)]
        b = [_simulate_family(0.8, np.random.default_rng(5)) for _ in range(20)]
        assert a == b


# --------------------------------------------------------------------- #
# importance-sampling unbiasedness
# --------------------------------------------------------------------- #


class _WordMemory:
    """Just the bit-space geometry the sampler consumes."""

    def __init__(self, total_words, bits_per_word=32):
        self.total_words = total_words
        self.bits_per_word = bits_per_word
        self.total_bits = total_words * bits_per_word


RATE = 1e-3
BOOST = 3.0
WORDS = 83  # matches a tiny MLP's weight memory
N_DRAWS = 4000
HOT = ImportanceBitflipSampler().hot_positions  # default: sign+exponent
N_HOT = WORDS * len(HOT)


class TestImportanceUnbiasedness:
    """With rate=1e-3, boost=3 over 83 words the weight's per-draw
    standard deviation is ~1.3, so 4000 draws pin the means to ~0.02;
    the asserted tolerances leave 4-5 sigma of slack."""

    def _draws(self):
        sampler = ImportanceBitflipSampler(boost=BOOST)
        memory = _WordMemory(WORDS)
        rng = np.random.default_rng(2020)
        weights = np.empty(N_DRAWS)
        no_hot_flip = np.empty(N_DRAWS, dtype=bool)
        hot_set = set(HOT)
        for i in range(N_DRAWS):
            faults, weight = sampler.sample_with_weight(memory, RATE, rng)
            weights[i] = weight
            in_word = np.asarray(faults.bit_indices) % memory.bits_per_word
            no_hot_flip[i] = not any(int(b) in hot_set for b in in_word)
        return weights, no_hot_flip

    def test_weights_have_unit_mean(self):
        weights, _ = self._draws()
        assert abs(float(weights.mean()) - 1.0) < 0.1
        assert np.all(weights > 0.0)

    def test_weighted_functional_matches_target_law(self):
        """E_q[w * 1{no hot flip}] == P_p(no hot flip) = (1-r)^n_hot."""
        weights, no_hot_flip = self._draws()
        truth = (1.0 - RATE) ** N_HOT
        estimate = float((weights * no_hot_flip).mean())
        assert abs(estimate - truth) < 0.1, (estimate, truth)
        # Sanity: the proposal really is tilted — raw (unweighted)
        # frequency of hot-flip-free draws is far below the target law's.
        assert float(no_hot_flip.mean()) < truth - 0.15

    def test_boost_one_degenerates_to_target(self):
        """boost=1 makes proposal == target: every weight is exactly 1."""
        sampler = ImportanceBitflipSampler(boost=1.0)
        memory = _WordMemory(WORDS)
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, weight = sampler.sample_with_weight(memory, RATE, rng)
            assert weight == 1.0

    def test_weighted_family_interval_centers_on_weighted_mean(self):
        rng = np.random.default_rng(11)
        accs = rng.uniform(0.2, 0.9, size=8)
        weights = rng.uniform(0.5, 2.0, size=8)
        estimate, halfwidth = family_interval(
            accs, N_IMAGES, weights=weights
        )
        assert estimate == pytest.approx(float(np.mean(weights * accs)))
        expected_half = 1.959963984540054 * float(
            np.std(weights * accs, ddof=1)
        ) / math.sqrt(8)
        assert halfwidth == pytest.approx(expected_half, rel=1e-6)
