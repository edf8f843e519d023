"""Stochastic multi-agent simulation of knowledge creation and propagation.

Agents hold tabular maps from experiences to concepts.  Each step, a
row-stochastic learning matrix built from a fixed structure matrix and a
state-dependent credibility matrix decides whom each agent samples from;
agents refit their tables by least squares on the sampled observations.
The spectral tools certify when and how fast the population contracts to a
shared conceptualization.
"""

from .knowledge import (
    BoxConcepts,
    ConstantLikelihood,
    DiscreteConcepts,
    GaussianPeakLikelihood,
    KnowledgeError,
    KnowledgeFunction,
    KnowledgeSetting,
    LikelihoodLandscape,
    TabularLikelihood,
    function_from_dict,
    function_from_json,
    grid_setting,
    knowledge_distance,
    landscape_from_dict,
    setting_from_dict,
    usage_penalty,
)
from .influence import (
    MatrixError,
    compute_credibility,
    compute_social_learning,
    normalize_rows,
)
from .spectral import (
    BoundInapplicableError,
    SpectralReport,
    analyze,
    communicates,
    covering_number_log_bound,
    dobrushin_coefficient,
    entry_lower_bound,
    is_primitive,
    required_sample_size,
    second_modulus,
)
from .dynamics import (
    ConfigError,
    PopulationState,
    RunResult,
    Sample,
    SimulationConfig,
    draw_sample,
    experience_kernel,
    run,
    step,
)
from .sampling import agent_streams
from .metrics import (
    MetricTrace,
    consensus_distance,
    nearest_individual_distance,
    relative_entropy,
)
from .experiments import (
    ExperimentSetup,
    PRESET_NAMES,
    build_manifest,
    dump_config,
    fit_decay_rate,
    load_config,
    mean_equilibrium_shifts,
    preset,
    run_experiment,
    setup_from_dict,
    summarize,
)

__version__ = "0.1.0"
