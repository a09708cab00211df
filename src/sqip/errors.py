"""Exception types shared across the package."""

from __future__ import annotations


class SqipError(Exception):
    """Base class for all package errors."""


class ConfigError(SqipError):
    """Invalid configuration text or scenario description.

    Carries the refused input's config key (or argument name, where no key
    applies) and, when it comes from a config file, the offending line.
    """

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line, self.key = line, key
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    def located(self, lines: dict[str, int]) -> "ConfigError":
        """This error naming its key, at the key's line in ``lines``."""
        if self.key is None or self.line is not None:
            return self
        message = str(self) if self.key in str(self) else f"{self.key}: {self}"
        return ConfigError(message, lines.get(self.key), self.key)


class DomainError(SqipError, ValueError):
    """An operation was called with mathematically inadmissible inputs."""


class AssumptionError(SqipError):
    """Mandatory admissibility checks on the initial data failed."""

    def __init__(self, failed_items: list[str]):
        self.failed_items = list(failed_items)
        super().__init__(
            "mandatory assumption checks failed: " + ", ".join(self.failed_items)
        )


class StiffnessError(SqipError):
    """Time step underflowed dt_min during reject-and-halve stepping."""

    def __init__(self, t: float, dt: float, location):
        self.t = t
        self.dt = dt
        self.location = location
        super().__init__(
            f"time step underflow at t={t:.6g} (dt={dt:.3g}); "
            f"worst grid index {location}"
        )


class NumericsError(SqipError):
    """Iteration failed to converge or a non-finite value appeared.

    The ``payload`` dict carries whatever evidence is available at the
    failure site (residuals, bracket endpoints, a state dump).
    """

    def __init__(self, message: str, **payload):
        self.payload = payload
        super().__init__(message)
