"""Desk-scale, seed-deterministic simulator of a hybrid digital-analog
task-oriented semantic link: linear analog feature transmission refined by
parity-only distributed source coding, a joint rate/power allocator, a
parity-based model-update protocol, and a Monte-Carlo sweep harness."""

from .allocator import (
    AllocationPlan,
    AllocatorContext,
    FerTable,
    allocate_exhaustive,
    allocate_greedy,
    model_analog_distortion,
    model_digital_distortion,
    system_distortion,
)
from .analog import analog_decode, analog_encode
from .channel import ChannelBudget, ChannelState, transmit
from .codec import (
    TaskModel,
    analyze,
    build_task_model,
    calibrate_prior_vars,
    synthesize_full,
)
from .digital import (
    QuantizerSpec,
    crc16,
    demodulate,
    dequantize,
    dsc_decode,
    dsc_encode,
    modulate,
    quantize,
    refine,
    side_info_llrs,
    viterbi_decode,
)
from .errors import (
    AllocationError,
    ConfigError,
    FormatError,
    InfeasibleAllocationError,
    ParameterError,
)
from .harness import (
    ExperimentConfig,
    SweepRow,
    calibrate_fer,
    detect_effects,
    run_point,
    run_sweep,
)
from .seu import (
    DriftSpec,
    ModelParams,
    drift,
    seu_send_floats,
    seu_update_ints,
)
from .sources import SourceSpec, gen_blocks, load_pgm

__version__ = "0.1.0"
