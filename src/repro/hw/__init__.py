"""Hardware substrate: weight memory, IEEE-754 bit faults, ECC and TMR."""

from repro.hw.actfaults import (
    ActivationFaultCellTask,
    ActivationFaultInjector,
    flip_activation_bits,
)
from repro.hw.bits import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    SIGN_BIT,
    WORD_BITS,
    bit_field,
    flip_bits_in_words,
    set_bits_in_words,
)
from repro.hw.ecc import (
    CODE_CHECK_BITS,
    CODE_DATA_BITS,
    CODE_TOTAL_BITS,
    ECCFilter,
)
from repro.hw.faultmodels import (
    OP_FLIP,
    OP_STUCK0,
    OP_STUCK1,
    BurstFault,
    FaultModel,
    FaultSet,
    FixedFaultMap,
    RandomBitFlip,
    StuckAt,
    TargetedBitFlip,
)
from repro.hw.injector import FaultInjector, InjectionRecord
from repro.hw.memory import MemoryRegion, WeightMemory
from repro.hw.quant import (
    INT8_BITS,
    QuantizedWeightMemory,
    dequantize_symmetric,
    quantize_symmetric,
)
from repro.hw.rangecheck import WeightRangeCheck
from repro.hw.tmr import DMRFilter, TMRFilter

__all__ = [
    "ActivationFaultCellTask",
    "ActivationFaultInjector",
    "BurstFault",
    "CODE_CHECK_BITS",
    "CODE_DATA_BITS",
    "CODE_TOTAL_BITS",
    "DMRFilter",
    "ECCFilter",
    "EXPONENT_BITS",
    "FaultInjector",
    "FaultModel",
    "FaultSet",
    "FixedFaultMap",
    "INT8_BITS",
    "InjectionRecord",
    "MANTISSA_BITS",
    "MemoryRegion",
    "OP_FLIP",
    "OP_STUCK0",
    "OP_STUCK1",
    "QuantizedWeightMemory",
    "RandomBitFlip",
    "SIGN_BIT",
    "StuckAt",
    "TMRFilter",
    "TargetedBitFlip",
    "WORD_BITS",
    "WeightMemory",
    "WeightRangeCheck",
    "bit_field",
    "dequantize_symmetric",
    "flip_activation_bits",
    "flip_bits_in_words",
    "quantize_symmetric",
    "set_bits_in_words",
]
