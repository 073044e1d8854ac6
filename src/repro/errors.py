"""Exception hierarchy for the QUASII reproduction library.

All exceptions raised deliberately by this package derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GeometryError(ReproError):
    """Raised for malformed geometric inputs (e.g. lower corner > upper)."""


class ConfigurationError(ReproError):
    """Raised when an index or generator is configured inconsistently."""


class DatasetError(ReproError):
    """Raised for invalid dataset construction or I/O problems."""


class QueryError(ReproError):
    """Raised when a query is malformed or incompatible with an index."""


class ParallelError(ReproError):
    """Raised when the process-parallel serving tier fails unrecoverably
    (e.g. a worker process keeps dying faster than it can be respawned)."""
