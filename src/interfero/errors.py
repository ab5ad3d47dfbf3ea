"""Typed domain errors shared across the toolkit.

Every error carries a machine-readable ``code`` (its class name) and an
optional ``details`` dict so the CLI can serialize failures to JSON.
"""
import json


class InterferoError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    @property
    def code(self):
        return type(self).__name__

    def to_json(self):
        """The error as a dict for strict JSON: a non-finite float in the
        details becomes the string "Infinity", "-Infinity" or "NaN"."""
        details = json.loads(json.dumps(self.details), parse_constant=str)
        return {"error": self.code, "message": str(self), "details": details}


# --- matrix core -----------------------------------------------------------
class NumericalFailure(InterferoError):
    pass


class InvalidDimension(InterferoError):
    pass


class ShapeError(InterferoError):
    pass


class SingularInput(InterferoError):
    pass


class PhaseUndefined(InterferoError):
    pass


# --- decomposition ---------------------------------------------------------
class InvalidSplit(InterferoError):
    pass


class NotUnitary(InterferoError):
    pass


class ShapeMismatch(InterferoError):
    pass


class PlanCorrupt(InterferoError):
    pass


# --- photonic model --------------------------------------------------------
class PortError(InterferoError):
    pass


class InvalidGamma(InterferoError):
    pass


# --- characterization ------------------------------------------------------
class DivisionByZeroCount(InterferoError):
    pass


class FitFailure(InterferoError):
    pass


class CalibrationOutOfRange(InterferoError):
    pass


class InsufficientData(InterferoError):
    pass


class DegenerateAmplitudes(InterferoError):
    pass


class BootstrapUnstable(InterferoError):
    pass


class ParseError(InterferoError):
    pass


# --- experiment harness ----------------------------------------------------
class FixtureError(InterferoError):
    pass


# --- group theory ----------------------------------------------------------
class NotHighestWeight(InterferoError):
    pass


class InternalInconsistency(InterferoError):
    pass


class LabelError(InterferoError):
    pass


class PartitionError(InterferoError):
    pass


class ComplexityLimit(InterferoError):
    pass


class NotTabulated(InterferoError):
    pass
