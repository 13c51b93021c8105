"""Tests for the mitigation baselines."""

import numpy as np
import pytest

from repro import nn
from repro.core.baselines import (
    MITIGATION_SAMPLERS,
    apply_relu6,
    dmr_sampler,
    ecc_sampler,
    tmr_sampler,
)
from repro.models import LeNet5
from tests.helpers import weight_memory


class TestModelBaselines:
    def test_apply_relu6_swaps_all_sites(self):
        model = LeNet5(seed=0)
        count = apply_relu6(model)
        assert count == 4
        relu6_layers = [m for m in model.modules() if isinstance(m, nn.ReLU6)]
        assert len(relu6_layers) == 4
        assert all(m.cap == 6.0 for m in relu6_layers)

    def test_apply_relu6_custom_cap(self):
        model = LeNet5(seed=0)
        apply_relu6(model, cap=2.0)
        relu6 = next(m for m in model.modules() if isinstance(m, nn.ReLU6))
        assert relu6.cap == 2.0

    def test_apply_relu6_no_sites_rejected(self):
        with pytest.raises(ValueError):
            apply_relu6(nn.Sequential(nn.Linear(4, 2, seed=0)))

class TestProtectionSamplers:
    def _memory(self):
        return weight_memory(
            [("p", nn.Parameter(np.zeros(5000)))]
        )

    @pytest.mark.parametrize(
        "factory", [ecc_sampler, tmr_sampler, dmr_sampler]
    )
    def test_samplers_return_fault_sets(self, factory):
        memory = self._memory()
        sampler = factory()
        fault_set = sampler(memory, 1e-4, np.random.default_rng(0))
        if len(fault_set):
            assert fault_set.bit_indices.max() < memory.total_bits

    def test_ecc_and_tmr_suppress_sparse_faults(self):
        """At sparse rates, protected memories see almost no effective
        faults while the plain sampler sees many."""
        memory = self._memory()
        rng_factory = lambda: np.random.default_rng(1)
        plain = MITIGATION_SAMPLERS["plain"]()(memory, 1e-4, rng_factory())
        ecc = MITIGATION_SAMPLERS["ecc"]()(memory, 1e-4, rng_factory())
        tmr = MITIGATION_SAMPLERS["tmr"]()(memory, 1e-4, rng_factory())
        assert len(plain) > 0
        assert len(ecc) < len(plain)
        assert len(tmr) < len(plain)

    def test_registry_complete(self):
        assert set(MITIGATION_SAMPLERS) == {"plain", "ecc", "tmr", "dmr"}
        for factory in MITIGATION_SAMPLERS.values():
            assert callable(factory())

    def test_ecc_policy_passthrough(self):
        sampler = ecc_sampler(due_policy="keep")
        memory = self._memory()
        # High rate so multi-bit words exist; "keep" yields flip operations.
        fault_set = sampler(memory, 5e-2, np.random.default_rng(0))
        assert len(fault_set) > 0
