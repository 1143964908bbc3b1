"""Exception types shared across the package."""


class PlasmonCqedError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PlasmonCqedError, ValueError):
    """Non-finite or out-of-contract input."""


class UnsupportedOrderError(PlasmonCqedError, ValueError):
    """Multipole order above the supported cap."""


class SingularityError(PlasmonCqedError, ZeroDivisionError):
    """Evaluation requested at a pole (z = 0 for Hankel, singular solve)."""


class TableRangeError(PlasmonCqedError, ValueError):
    """Tabulated permittivity queried outside its grid; no extrapolation."""


class SingularDenominatorError(PlasmonCqedError, ZeroDivisionError):
    """Quasi-static polarizability evaluated exactly on a lossless pole."""


class NoResonanceError(PlasmonCqedError, ValueError):
    """No real quasi-static resonance root in the search bracket."""


class FitFailureError(PlasmonCqedError, RuntimeError):
    """Nonlinear fit did not converge, or its resonance lies off its grid;
    carries the best iterate found."""

    def __init__(self, message, best_params=None, best_cost=None):
        super().__init__(message)
        self.best_params = best_params
        self.best_cost = best_cost


class IncompleteModesError(PlasmonCqedError, ValueError):
    """Mode list lacks a field required by the requested construction."""


class NearDefectiveError(PlasmonCqedError, RuntimeError):
    """Biorthogonal normalization underflow: eigenbasis nearly defective."""


class InvalidRateError(PlasmonCqedError, ValueError):
    """Negative rate passed to a dissipator channel."""


class ContractViolationError(PlasmonCqedError, ValueError):
    """Internal precondition broken (e.g. non-hermitian system Hamiltonian)."""


class NumericalFailureError(PlasmonCqedError, RuntimeError):
    """Dense eigensolver or linear solve failed to converge."""


class SchemaError(PlasmonCqedError, ValueError):
    """Scenario configuration violates the schema; carries the field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
