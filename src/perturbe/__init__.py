"""Perturbation and data-augmentation toolkit for NL-to-code corpora.

The package covers the full pipeline: corpus ingestion and splitting,
intent preprocessing, programming-vocabulary mining, word-vector loading
and neighbor search, POS tagging, word substitution/omission perturbations,
embedding-similarity gating, augmented dataset assembly, and the
robustness metrics (SYN/SEM/ROB/JSD) used to evaluate code generators.
"""

__version__ = "0.1.0"

from perturbe.errors import (
    CheckerError,
    ConfigError,
    DataError,
    NoEligibleWords,
)

__all__ = [
    "CheckerError",
    "ConfigError",
    "DataError",
    "NoEligibleWords",
    "__version__",
]
