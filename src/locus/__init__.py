"""Sparse low-rank blind source separation for symmetric connectivity
matrices: a node-rotation block-coordinate solver with an edge-wise L1
penalty, plus synthetic benchmarks, baselines and reliability evaluation."""

__version__ = "0.1.0"

from .baselines import IcaModel, fastica
from .connmat import (ConnectivityDataset, fisher_z, load_dataset,
                      save_dataset, unvectorize, vectorize)
from .errors import (DegeneracyError, DimensionError, LocusError,
                     NumericError, ValidationError)
from .evaluate import (BootstrapResult, MatchResult, ReliabilityReport,
                       bootstrap_replicates, match_sources, reliability_report)
from .modelsel import TuningResult, bic, select_rank, tune
from .preprocess import WhitenedData, unmix_to_subject_space, whiten
from .solver import (LocusModel, LowRankSource, SolverConfig, fit,
                     initialize, objective, soft_threshold, update_d,
                     update_mixing)
from .synth import GroundTruth, SyntheticSpec, generate

__all__ = [
    "BootstrapResult", "ConnectivityDataset", "DegeneracyError",
    "DimensionError", "GroundTruth", "IcaModel", "LocusError", "LocusModel",
    "LowRankSource", "MatchResult", "NumericError", "ReliabilityReport",
    "SolverConfig", "SyntheticSpec", "TuningResult", "ValidationError",
    "WhitenedData", "bic", "bootstrap_replicates", "fastica", "fisher_z",
    "fit", "generate", "initialize", "load_dataset", "match_sources",
    "objective", "reliability_report", "save_dataset",
    "select_rank", "soft_threshold", "tune", "unmix_to_subject_space",
    "unvectorize", "update_d", "update_mixing", "vectorize", "whiten",
]
