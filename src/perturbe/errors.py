"""Exception hierarchy shared across the pipeline.

CLI exit codes map onto these: ConfigError -> 1, DataError -> 2 (as does a
missing input file), CheckerError -> 3.
"""


class PerturbeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PerturbeError):
    """Invalid configuration: bad ratios, unknown keys, malformed templates."""


class DataError(PerturbeError):
    """Malformed or inconsistent input data (parse failures, duplicate ids)."""


class CheckerError(PerturbeError):
    """The external syntax checker is missing or cannot be invoked."""


class NoEligibleWords(PerturbeError):
    """A sample cannot be perturbed by the requested kind.

    Not a data defect: it signals "this sample has no word the perturbation
    may touch" and is collected into skip reports by corpus-level drivers.
    """
