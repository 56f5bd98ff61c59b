"""Hybrid message-passing channel estimation for wideband multi-antenna
downlinks: a partially-observed angular channel with a clustered
sparsity-pattern prior, estimated by a turbo loop that alternates a
closed-form linear stage with a structured denoiser that learns its own
hyperparameters.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelRealization,
    MeasurementSet,
    PilotMatrix,
    PilotSet,
    angle_transform,
    load_channel,
    make_pdft_rp,
    make_pilot_set,
    sample_channel,
    sample_support,
    save_channel,
    stationary_activation,
    synthesize_measurements,
)
from .denoiser import DenoiserState, PriorConfig, denoise, init_state
from .factorgraph import (
    BP,
    MF,
    BernoulliMixFactor,
    BetaPriorFactor,
    CGaussPriorFactor,
    FactorGraph,
    GammaPriorFactor,
    MixtureObservationFactor,
    PrecisionGaussFactor,
    TableFactor,
    UnnormalizableMessageError,
    UnsupportedGraphError,
    Variable,
    exact_marginals,
    stretched_graph_equivalence_check,
)
from .lmmse import dense_lmmse, extrinsic_split, lmmse_update
from .messages import (
    BetaBelief,
    GammaBelief,
    GaussianMsg,
    NonInformativePosteriorError,
    digamma_approx,
    digamma_exact,
    gaussian_extrinsic,
    gaussian_extrinsic_clamped,
    gaussian_multiply,
)
from .priors import (
    VARIANT_BG,
    VARIANT_LVD,
    VARIANT_TSGM,
    ScalarPrior,
    posterior_moments_mixture,
)
from .turbo import (
    AlgoConfig,
    MmseSampler,
    SeTrace,
    SeUndefinedError,
    TurboTrace,
    mmse_oracle,
    nmse,
    run_state_evolution,
    run_turbo,
    se_step,
    to_db,
)

__all__ = [name for name in dir() if not name.startswith("_")]
