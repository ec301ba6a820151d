"""Multi-armed bandit password guessing over weighted source dictionaries."""

from .bandit import (
    BanditState,
    GuessPolicy,
    InitPolicy,
    initialize_weights,
    new_state,
    record_observation,
    select_guess,
)
from .config import ExperimentConfig, load_config, parse_config, save_config, serialize_config
from .dictionary import (
    Corpus,
    Dictionary,
    from_password_multiset,
    load_frequency_file,
    load_frequency_list,
    save_frequency_file,
    serialize_frequency_list,
)
from .mixture import (
    DescentConfig,
    GuessHistory,
    MixtureWeights,
    estimate,
    gradient,
    log_likelihood,
)
from .simulator import (
    AttackTrace,
    PasswordSet,
    TraceRecord,
    average_traces,
    compose_password_set,
    largest_remainder_counts,
    optimal_baseline,
    oracle_count,
    pad_curve,
    run_attack,
)

__version__ = "0.1.0"

__all__ = [
    "AttackTrace",
    "BanditState",
    "Corpus",
    "DescentConfig",
    "Dictionary",
    "ExperimentConfig",
    "GuessHistory",
    "GuessPolicy",
    "InitPolicy",
    "MixtureWeights",
    "PasswordSet",
    "TraceRecord",
    "average_traces",
    "compose_password_set",
    "estimate",
    "from_password_multiset",
    "gradient",
    "initialize_weights",
    "largest_remainder_counts",
    "load_config",
    "load_frequency_file",
    "load_frequency_list",
    "log_likelihood",
    "new_state",
    "optimal_baseline",
    "oracle_count",
    "pad_curve",
    "parse_config",
    "record_observation",
    "run_attack",
    "save_config",
    "save_frequency_file",
    "select_guess",
    "serialize_config",
    "serialize_frequency_list",
]
