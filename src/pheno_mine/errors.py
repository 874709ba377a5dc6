"""Exception types shared across the package."""


class PhenoMineError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaError(PhenoMineError):
    """A phenotype schema file is malformed or violates an invariant."""


class ParameterError(PhenoMineError):
    """A caller-supplied parameter is out of its documented range."""


class ConfigError(PhenoMineError):
    """A run configuration is incomplete or inconsistent."""


class CohortError(PhenoMineError):
    """Cohort assignment or sampling cannot proceed."""


class TransportError(PhenoMineError):
    """A network-level failure persisted after retries were exhausted."""


class BackendError(PhenoMineError):
    """The completion backend rejected a request permanently."""


class TransientBackendError(PhenoMineError):
    """A backend failure worth retrying (timeouts, 429, 5xx).

    ``retry_after`` is the wait in seconds the server asked for, if it gave one.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ProtocolError(PhenoMineError):
    """The completion backend returned a body that cannot be parsed."""


class MatrixError(PhenoMineError):
    """Feature matrix construction or serialization failed."""


class StatsError(PhenoMineError):
    """Contingency construction or hypothesis testing failed."""


class DegenerateTableError(StatsError):
    """A contingency table has a zero row or column margin.

    The ``margin`` attribute names the offending margin so report code can
    render the cell as untestable instead of aborting the whole run.
    """

    def __init__(self, message: str, margin: str = ""):
        super().__init__(message)
        self.margin = margin


class AnalysisError(PhenoMineError):
    """Clustering or projection failed on the given inputs."""


class BaselineError(PhenoMineError):
    """Baseline matcher input is unusable."""
