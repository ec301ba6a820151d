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
from .config import ExperimentConfig, load_config
from .dictionary import Corpus, Dictionary, load_frequency_file, save_frequency_file
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
    compose_password_set,
    optimal_baseline,
    oracle_count,
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
    "compose_password_set",
    "estimate",
    "gradient",
    "initialize_weights",
    "load_config",
    "load_frequency_file",
    "log_likelihood",
    "new_state",
    "optimal_baseline",
    "oracle_count",
    "record_observation",
    "run_attack",
    "save_frequency_file",
    "select_guess",
]
