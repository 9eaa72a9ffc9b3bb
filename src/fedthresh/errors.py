"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad field values, malformed files, impossible splits."""


class AuditError(AssertionError):
    """Channel traffic, or a method's declared upload, breaks the privacy
    contract. An AssertionError, so the CLI reports it as a runtime
    failure (exit 3)."""


class DivergedTraining(RuntimeError):
    """Training loss became non-finite; `client` is the index of the
    failing client in the list handed to train_clients."""

    def __init__(self, epoch: int, message: str | None = None,
                 client: int = 0):
        self.epoch = epoch
        self.client = client
        super().__init__(message or f"training diverged (non-finite loss) in epoch {epoch}")


class FederationError(RuntimeError):
    """A federated round failed; carries round and client indices."""

    def __init__(self, round_index: int, client_id: int, cause: Exception):
        self.round_index = round_index
        self.client_id = client_id
        self.cause = cause
        super().__init__(f"round {round_index}, client {client_id}: {cause}")


class NoAnomalyStatistics(ValueError):
    """No client contributed anomaly summaries; both distributions are required."""


class InsufficientTail(ValueError):
    """Too few exceedances above quantile level u_quantile to fit a tail."""

    def __init__(self, message: str, u_quantile: float):
        self.u_quantile = u_quantile
        super().__init__(message)


class StageError(RuntimeError):
    """A scenario stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")
