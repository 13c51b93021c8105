"""Fault-injection campaigns over int8 quantized weight memories.

Mirrors :mod:`repro.core.campaign` for the int8 storage model: the model
is *deployed* on dequantized-int8 weights (so the clean accuracy honestly
includes quantization error) and faults flip bits of the int8 codes.
Used by the quantization ablation benchmark to show how much of the
paper's float32 fragility disappears with bounded-error storage.

The sweep runs through the shared
:class:`~repro.core.executor.CampaignExecutor` substrate:
:class:`QuantizedCellTask` describes the campaign, ``workers=`` fans its
grid across a process pool (bit-identical to serial at any worker
count), and ``progress``/``checkpoint`` stream and resume it exactly
like the float32 campaigns.

Under the zero-copy tensor plane (``docs/MEMORY_MODEL.md``) a worker's
task arrives as read-only shared-memory views; deployment then
copy-on-writes every region it dequantizes (int8 deployment rewrites
the whole mapped memory by nature), so the plane's win for this
campaign is the one-per-host transport and the published clean-pass
activation cache rather than steady-state weight residency.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import nn
from repro.core.campaign import CampaignConfig
from repro.core.executor import (
    CampaignExecutor,
    cell_seed_path,
    clean_pass_key,
    payload_state,
)
from repro.core.metrics import ResilienceCurve, evaluate_accuracy_arrays
from repro.hw.memory import WeightMemory
from repro.hw.quant import QuantizedWeightMemory
from repro.utils.rng import SeedTree

__all__ = ["QuantizedCellTask", "run_quantized_campaign"]


class QuantizedCellTask:
    """Cell protocol for the int8 campaign (see :mod:`repro.core.executor`).

    Seeds follow the same ``rate/<i>/trial/<j>`` derivation as the float
    campaign, so int8 and float32 runs with the same config share common
    random numbers (the *positions* differ — the bit spaces have different
    sizes — but the statistical pairing still reduces variance).
    """

    kind = "quantized"
    cell_width = 1

    def __init__(
        self,
        model: nn.Module,
        memory: WeightMemory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        label: str = "int8",
        sampler: "Callable | None" = None,
    ):
        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.label = label
        self._clean: "float | None" = None
        # Optional picklable fault sampler over the *int8 code space*:
        # called as sampler(quantized_memory, rate, rng) and may return a
        # bit-index array or a FaultSet (stuck-at ops included).  None
        # keeps the historical random-bit-flip sweep.  Part of the
        # pickled payload: a stuck-at checkpoint can never resume a
        # random-flip sweep.
        self.sampler = sampler

    def __getstate__(self) -> dict:
        return payload_state(self)

    def clean_accuracy(self) -> float:
        """Accuracy on dequantized-int8 weights without faults (lazy).

        Quantization is deterministic, so deploying here and deploying in
        a runner produce bit-identical weights.
        """
        if self._clean is None:
            quantized = QuantizedWeightMemory(self.memory)
            with quantized.deployed():
                self._clean = evaluate_accuracy_arrays(
                    self.model, self.images, self.labels, self.config.batch_size
                )
        return self._clean

    def absorb_clean_logits(self, logits_batches) -> None:
        """Seed the lazy clean accuracy from an engine's clean pass.

        A quantized runner builds its suffix engine *after* deployment,
        so the exported clean logits already reflect the dequantized
        int8 weights — exactly what :meth:`clean_accuracy` measures.
        """
        from repro.core.executor import _accuracy_from_logits

        self._clean = _accuracy_from_logits(
            self._clean, logits_batches, self.labels
        )

    def clean_pass_key(self) -> tuple:
        """The runner's clean pass: the model int8-deployed over the memory."""
        layers = tuple(self.memory.layer_names())
        return clean_pass_key(
            ("int8", layers), self.model, self.images,
            self.config.batch_size, layers,
        )

    def make_runner(self) -> "_QuantizedCellRunner":
        return _QuantizedCellRunner(self)

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> ResilienceCurve:
        return ResilienceCurve(
            fault_rates=rates,
            accuracies=values,
            clean_accuracy=self.clean_accuracy(),
            label=self.label,
        )


class _QuantizedCellRunner:
    """Holds the int8 deployment for the duration of the cell loop.

    The model runs on dequantized-int8 weights while the runner is open;
    :meth:`close` restores the original float weights (essential on the
    serial path, where the runner deploys the *caller's* model).  The
    suffix engine's clean pass runs *after* deployment, so its cached
    prefix activations reflect the dequantized weights — each cell then
    re-executes only from the first layer whose int8 codes were hit.
    """

    def __init__(self, task: QuantizedCellTask):
        from repro.core.suffix import SuffixForwardEngine

        self.task = task
        self.quantized = QuantizedWeightMemory(task.memory)
        self._deployment = self.quantized.deployed()
        self._deployment.__enter__()
        self.engine = None
        try:
            self.tree = SeedTree(task.config.seed)
            self.engine = SuffixForwardEngine.build(
                task.model,
                task.images,
                task.config.batch_size,
                scope_layers=task.memory.layer_names(),
            )
        except BaseException:
            # Construction must not strand the caller's live model on
            # dequantized weights (the serial path and the executor's
            # parent-side cache export both build runners over it).
            self.close()
            raise

    def fault_set(self, rate_index: int, trial: int):
        """The cell's int8 fault draw on its deterministic seed path."""
        task = self.task
        rate = float(task.config.fault_rates[rate_index])
        rng = self.tree.generator(cell_seed_path(rate_index, trial))
        sampler = getattr(task, "sampler", None)
        if sampler is None:
            return self.quantized.sample_bitflips(rate, rng)
        return sampler(self.quantized, rate, rng)

    def run_fault_set(self, faults) -> float:
        """Measure the deployed model under one pre-drawn fault set."""
        task = self.task
        forward = None
        if self.engine is not None:
            forward = self.engine.forward_fn(
                self.quantized.affected_layers(faults)
            )
        with self.quantized.apply(faults):
            return evaluate_accuracy_arrays(
                task.model, task.images, task.labels, task.config.batch_size,
                forward=forward,
            )

    def run_cell(self, rate_index: int, trial: int) -> float:
        return self.run_fault_set(self.fault_set(rate_index, trial))

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self._deployment is not None:
            deployment, self._deployment = self._deployment, None
            deployment.__exit__(None, None, None)


def run_quantized_campaign(
    model: nn.Module,
    memory: WeightMemory,
    images: np.ndarray,
    labels: np.ndarray,
    config: "CampaignConfig | None" = None,
    label: str = "int8",
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
    sampler: "Callable | None" = None,
) -> ResilienceCurve:
    """Rate sweep x trials with faults in the int8 code space.

    ``workers`` fans the grid across a process pool (``0`` = one per CPU
    core); the result is bit-identical to the serial run.  ``progress``
    receives a :class:`~repro.core.executor.CellResult` per completed
    cell and ``checkpoint`` names a JSONL journal enabling resume of an
    interrupted sweep — the checkpoint fingerprint records the campaign
    kind, so an int8 checkpoint can never resume a float32 sweep.
    ``sampler`` optionally replaces the random-bit-flip draw with a
    picklable ``(quantized_memory, rate, rng) -> FaultSet | bit indices``
    callable — how declarative scenarios (:mod:`repro.scenarios`) run
    stuck-at/burst/targeted fault models against int8 storage.
    """
    task = QuantizedCellTask(
        model, memory, images, labels, config, label=label, sampler=sampler,
    )
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    return executor.run_tasks([task])[0]
