"""Exception types raised by the solvers and evaluators."""


class OptomechError(Exception):
    """Base class for all package errors."""


def field_error(kind, field: str, message: str) -> Exception:
    """``kind(message)`` carrying the input field it names as ``field``."""
    err = kind(message)
    err.field = field
    return err


class NoPhysicalRoot(OptomechError):
    """The steady-state cubic produced no admissible nonnegative real root."""


class NonpositiveDetuning(OptomechError):
    """Analytic stability margin requested for a non-red-detuned cavity."""


class UnstableDrift(OptomechError):
    """Lyapunov solve requested for a drift matrix that is not Hurwitz."""


class SolverSingular(OptomechError):
    """Linear system of the Lyapunov solve is numerically singular.

    Carries a condition-number estimate of the vectorized system.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


class UnphysicalState(OptomechError):
    """Covariance matrix not positive definite, below the Heisenberg bound beyond
    slack, or squeezed past what a double-precision symplectic spectrum holds."""


class NegativeDiscriminant(OptomechError):
    """Symplectic-eigenvalue discriminant negative beyond slack; numerical breakdown."""


class ImaginaryFrequency(OptomechError):
    """Effective mechanical frequency radicand negative (threshold overshoot).

    Carries the offending radicand value.
    """

    def __init__(self, radicand: float):
        super().__init__(
            "effective mechanical frequency is imaginary: "
            f"radicand {radicand:.6e} < 0 (working point at or beyond the static instability)"
        )
        self.radicand = radicand


class QuadratureNotConverged(OptomechError):
    """Adaptive quadrature exhausted its budget before reaching tolerance.

    Carries the achieved error estimate.
    """

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


class UnstableTimestep(OptomechError):
    """Trajectory timestep violates the dt * max|eigenvalue| guard."""


class ConfigError(OptomechError):
    """Invalid configuration document; message carries file and line when known."""


class PointEvaluationError(OptomechError):
    """A pipeline stage failed for a specific parameter point.

    Carries the stage name; the original error is chained as __cause__.
    """

    def __init__(self, stage: str, detail: str):
        super().__init__(f"stage '{stage}' failed: {detail}")
        self.stage = stage
