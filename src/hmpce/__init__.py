"""Hybrid message-passing channel estimation for wideband multi-antenna
downlinks: a partially-observed angular channel with a clustered
sparsity-pattern prior, estimated by a turbo loop that alternates a
closed-form linear stage with a structured denoiser that learns its own
hyperparameters.

The factor-graph engine that demonstrates the hybrid message rule,
`hmpce.factorgraph`, is imported on its own; `import hmpce` does not load it.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelRealization,
    MeasurementSet,
    PilotSet,
    load_channel,
    make_pilot_set,
    sample_channel,
    sample_support,
    save_channel,
    stationary_activation,
    synthesize_measurements,
)
from .denoiser import DenoiserState, PriorConfig, denoise, init_state
from .lmmse import extrinsic_split, lmmse_update
from .messages import BetaBelief, GammaBelief, digamma_approx, digamma_exact
from .priors import (
    VARIANT_BG,
    VARIANT_LVD,
    VARIANT_TSGM,
    ScalarPrior,
    posterior_variance_mixture,
)
from .turbo import (
    AlgoConfig,
    BatchTrace,
    MmseSampler,
    NonFiniteStateError,
    SeTrace,
    SeUndefinedError,
    TurboTrace,
    nmse,
    run_state_evolution,
    run_turbo,
    run_turbo_batch,
    se_step,
    to_db,
)

__all__ = [name for name in dir() if not name.startswith("_")]
