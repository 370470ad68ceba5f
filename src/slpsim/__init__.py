"""Link-level simulator for interference-exploiting symbol-level precoding.

Per-symbol max-min constructive-interference precoding for square QAM, a
closed-form in-block power allocation that makes the receiver rescaling
factor constant over a transmission block, ZF/RZF baselines, and a seeded
Monte Carlo engine for BER / throughput sweeps.
"""

from .baselines import LinearPrecoder, PrecoderKind, baseline_rescaling, rzf_precoder, zf_precoder
from .channel import (
    ChannelRealization,
    NoiseModel,
    generate_channel,
    sample_noise,
    sigma2_from_snr,
    trial_rng,
)
from .constellation import (
    AxisClass,
    ComponentClass,
    ConstellationSpec,
    SUPPORTED_ORDERS,
    build_constellation,
    classify_component,
    demodulate,
    modulate,
)
from .errors import ConfigurationError, DegenerateMarginError, SolverFailure
from .link_sim import (
    BlockResult,
    LinkConfig,
    MetricsRecord,
    Scheme,
    effective_throughput,
    quantize_broadcast,
    run_monte_carlo,
    simulate_block,
)
from .power_alloc import (
    AllocationMode,
    KktCertificate,
    PowerAllocation,
    allocate_in_block,
    allocate_uniform,
    per_symbol_rescaling,
    solve_maxmin_power,
    verify_kkt,
)
from .slp_core import (
    CiInstance,
    ResidualReport,
    SlpSolution,
    SolverOptions,
    SolverStatus,
    build_instance,
    compute_alphas,
    solve_ci_max,
    verify_solution,
)

__version__ = "0.1.0"
