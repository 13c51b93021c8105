"""FT-ClipAct core: clipped activations, profiling, AUC, campaigns,
threshold fine-tuning (Algorithm 1) and the end-to-end pipeline."""

from repro.core.baselines import (
    MITIGATION_SAMPLERS,
    apply_relu6,
    dmr_sampler,
    ecc_sampler,
    run_mitigation_sweep,
    tmr_sampler,
)
from repro.core.campaign import (
    CampaignConfig,
    FaultSampler,
    default_fault_rates,
    random_bitflip_sampler,
    run_campaign,
)
from repro.core.clipped import ClampedReLU, ClippedLeakyReLU, ClippedReLU
from repro.core.executor import (
    CampaignExecutor,
    CellResult,
    WeightFaultCellTask,
    resolve_workers,
)
from repro.core.quantized import QuantizedCellTask, run_quantized_campaign
from repro.core.finetune import (
    FineTuneConfig,
    FineTuneResult,
    IterationTrace,
    LayerAUCEvaluator,
    ThresholdFineTuner,
    fine_tune_threshold,
)
from repro.core.metrics import (
    BoxStats,
    ResilienceCurve,
    auc_resilience,
    evaluate_accuracy_arrays,
    predict_labels,
)
from repro.core.pipeline import FTClipAct, FTClipActConfig, HardenedModel, harden_model
from repro.core.suffix import SuffixForwardEngine
from repro.core.profiling import (
    ActivationProfiler,
    LayerActivationStats,
    ProfileResult,
    profile_activations,
)
from repro.core.swap import (
    ActivationSite,
    ActivationSwapResult,
    find_activation_sites,
    get_thresholds,
    set_thresholds,
    swap_activations,
)

__all__ = [
    "ActivationProfiler",
    "ActivationSite",
    "ActivationSwapResult",
    "BoxStats",
    "CampaignConfig",
    "CampaignExecutor",
    "CellResult",
    "ClampedReLU",
    "ClippedLeakyReLU",
    "ClippedReLU",
    "FTClipAct",
    "FTClipActConfig",
    "FaultSampler",
    "FineTuneConfig",
    "FineTuneResult",
    "HardenedModel",
    "IterationTrace",
    "LayerAUCEvaluator",
    "LayerActivationStats",
    "MITIGATION_SAMPLERS",
    "ProfileResult",
    "QuantizedCellTask",
    "ResilienceCurve",
    "SuffixForwardEngine",
    "ThresholdFineTuner",
    "WeightFaultCellTask",
    "apply_relu6",
    "auc_resilience",
    "default_fault_rates",
    "dmr_sampler",
    "ecc_sampler",
    "evaluate_accuracy_arrays",
    "find_activation_sites",
    "fine_tune_threshold",
    "get_thresholds",
    "harden_model",
    "predict_labels",
    "profile_activations",
    "random_bitflip_sampler",
    "resolve_workers",
    "run_campaign",
    "run_mitigation_sweep",
    "run_quantized_campaign",
    "set_thresholds",
    "swap_activations",
    "tmr_sampler",
]
