"""Exception hierarchy for the repro (BClean) library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A table or operation violates the declared schema.

    Raised for unknown attribute names, duplicate attributes, or row
    width mismatches.
    """


class TypeInferenceError(ReproError):
    """Automatic attribute type inference failed or was contradictory."""


class CSVFormatError(ReproError, ValueError):
    """A CSV file could not be parsed into a table.

    Also a :class:`ValueError`, so callers streaming chunks through
    generic loaders can catch malformed input without importing the
    repro error hierarchy.
    """


class GraphError(ReproError):
    """An operation on a DAG is invalid (cycle, unknown node, ...)."""


class CycleError(GraphError):
    """Adding an edge would create a directed cycle."""


class ModelFormatError(ReproError):
    """A persisted model file is truncated, is not valid JSON, or was
    written in a format version this build does not read."""


class CPTError(ReproError):
    """A conditional probability table is malformed or inconsistent."""


class InferenceError(ReproError):
    """Bayesian inference could not be carried out."""


class StructureLearningError(ReproError):
    """A structure learning algorithm failed to produce a network."""


class ConvergenceError(ReproError):
    """An iterative numerical routine failed to converge."""


class ConstraintError(ReproError):
    """A user constraint specification is invalid."""


class ConstraintSpecError(ConstraintError):
    """A constraint spec string or mapping could not be parsed."""


class CleaningError(ReproError):
    """The cleaning engine hit an unrecoverable condition."""


class DatasetError(ReproError):
    """A benchmark dataset generator was misconfigured."""


class ErrorInjectionError(DatasetError):
    """Error injection parameters are invalid (e.g. rate outside [0, 1])."""


class EvaluationError(ReproError):
    """Evaluation inputs are inconsistent (e.g. mismatched table shapes)."""


class BaselineError(ReproError):
    """A baseline cleaning system was misconfigured."""
