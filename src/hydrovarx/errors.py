"""Exception hierarchy.

Three families, mirrored by the command-line exit codes: configuration and
contract violations (exit 2), data problems (exit 3), numerical failures
(exit 4). Library callers catch :class:`HydroVarxError` for everything.
"""

from __future__ import annotations


class HydroVarxError(Exception):
    """Base class for all errors raised by this package."""

    #: optional pipeline stage label attached where the failure occurred
    stage: str | None = None


# --- configuration / contract (exit code 2) ---------------------------------

class ConfigError(HydroVarxError):
    """Invalid or inconsistent run configuration."""


class ContractError(HydroVarxError):
    """A documented API precondition was violated by the caller."""


class InvalidOperationError(ContractError):
    """Operation not permitted on this object (e.g. dropping a target column)."""


# --- data (exit code 3) ------------------------------------------------------

class DataError(HydroVarxError):
    """Base class for problems with input data."""


class InputError(DataError):
    """Malformed input cell or date; message names the row and column."""


class EmptyDataError(DataError):
    """No usable rows remain."""


class ColumnNotFoundError(DataError):
    """A referenced column does not exist."""


class InsufficientDataError(DataError):
    """Too few rows for the requested operation; message states the minimum."""


class UnsupportedResolutionError(DataError):
    """Operation undefined for this frame's time resolution."""


class CompatibilityError(DataError):
    """Model and data disagree on column names or shapes."""


# --- numerical (exit code 4) -------------------------------------------------

class NumericalError(HydroVarxError):
    """Base class for numerical failures."""


class NonFiniteError(NumericalError):
    """NaN or infinity encountered where finite values are required."""


class DegenerateFitError(NumericalError):
    """The fitting problem is degenerate (zero rows, zero residual variance...)."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the process exit code used by the CLI."""
    if isinstance(exc, (ConfigError, ContractError)):
        return 2
    if isinstance(exc, DataError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    return 1
