"""Sparse-anchor motion synthesis at desk scale.

Pipeline pieces: anchor scaffold construction (:mod:`anchorsynth.scaffold`),
metric-guided discrete-flow token sampling (:mod:`anchorsynth.tokenflow`),
scaffold-memory attention (:mod:`anchorsynth.attention`), interval-routed
soft-token refinement (:mod:`anchorsynth.refine`), a synthetic test world
(:mod:`anchorsynth.synthworld`), and a CLI (:mod:`anchorsynth.cli`).
"""

from .attention import (
    ConditionMemory,
    KvProjection,
    TextContext,
    attend,
    attend_with_weights,
    encode_memory,
    project_kv,
)
from .motion import ControlFamily, Motion, observation_adjoint, observe
from .refine import (
    ActivityVector,
    BasisMatrix,
    DecoderModel,
    OptState,
    RefineStep,
    SoftTokens,
    SolverConfig,
    activities,
    build_basis,
    grad_objective,
    objective,
    opt_step,
    refine,
    route,
    soft_init,
)
from .scaffold import (
    Anchor,
    AnchorSet,
    IntervalPartition,
    ResidualScaffold,
    ScaffoldFeatures,
    anchor_loss,
    build_features,
    build_intervals,
    interp_prior,
    residuals,
    support_assignment,
    supervised_anchor_loss,
)
from .synthworld import (
    BlockDecoder,
    LinearDecoder,
    OracleDenoiser,
    SynthTask,
    control_error,
    make_codebook,
    make_decoder,
    make_motion,
    make_paired_codec,
    tokenize,
)
from .tokenflow import (
    Codebook,
    Denoiser,
    FlowSchedule,
    SampleStep,
    TokenSeq,
    corrupt,
    corruption_dist,
    denoise_loss,
    jump_rates,
    metric_distance,
    sample,
    step,
    training_objective,
)

__version__ = "0.1.0"
