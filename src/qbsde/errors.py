"""Exception hierarchy shared by all qbsde modules."""


class QbsdeError(Exception):
    """Base class for all library errors."""


class InvalidArgument(QbsdeError, ValueError):
    """A precondition on an argument was violated."""


class SimulationDiverged(QbsdeError):
    """Forward simulation produced a non-finite state."""

    def __init__(self, msg: str, path_index: int | None = None):
        super().__init__(msg)
        self.path_index = path_index


class CapabilityMissing(QbsdeError):
    """A solver cannot handle the given input (e.g. the tree oracle at d > 1)."""


class DriverEvaluationError(QbsdeError):
    """Driver evaluation returned a non-finite value."""


class SolverDiverged(QbsdeError):
    """The Picard inner loop failed to contract."""


class ResourceLimit(QbsdeError):
    """A hard resource cap (memory) would be exceeded."""


class OracleOverflow(QbsdeError):
    """A closed-form oracle hit exponential-moment overflow."""


class DiagnosticsOverflow(QbsdeError):
    """A diagnostic accumulation became non-finite."""

    def __init__(self, msg: str, path_index: int | None = None):
        super().__init__(msg)
        self.path_index = path_index


class SchemaViolation(QbsdeError):
    """An experiment config failed schema validation."""

    def __init__(self, field: str, msg: str):
        super().__init__(f"{field}: {msg}")
        self.field = field


class UnknownRegistryName(QbsdeError):
    """A config referenced a registry entry that does not exist."""

    def __init__(self, kind: str, name: str, available: list[str]):
        super().__init__(
            f"unknown {kind} '{name}'; available: {', '.join(sorted(available))}"
        )
        self.kind = kind
        self.name = name
        self.available = sorted(available)


class ReportIncomplete(QbsdeError):
    """A run record is missing stages required for report emission."""

    def __init__(self, missing: list[str]):
        super().__init__(f"missing stages: {', '.join(missing)}")
        self.missing = missing
