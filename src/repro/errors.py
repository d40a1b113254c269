"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Errors carry human-readable messages describing what was
wrong and, where useful, the offending value.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for structural graph errors (missing nodes, bad edges)."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class GeneratorParameterError(ReproError, ValueError):
    """Raised when a random-graph generator receives invalid parameters."""


class SamplingError(ReproError, ValueError):
    """Raised when a copy-model sampler receives invalid parameters."""


class SeedError(ReproError, ValueError):
    """Raised when seed-link generation parameters are invalid."""


class MatcherConfigError(ReproError, ValueError):
    """Raised when :class:`repro.core.config.MatcherConfig` is invalid."""


class MatcherRegistryError(ReproError):
    """Raised by the matcher registry: unknown name or duplicate entry."""


class EvaluationError(ReproError, ValueError):
    """Raised when evaluation inputs are inconsistent (e.g. no ground truth)."""


class DatasetError(ReproError, ValueError):
    """Raised when a dataset simulator receives invalid parameters."""


class MapReduceError(ReproError, RuntimeError):
    """Raised for errors inside the local MapReduce engine."""


class KernelInputError(ReproError, ValueError):
    """Raised when a compiled kernel receives malformed arrays.

    The compiled join and selection kernels index raw buffers through
    :mod:`ctypes` with no bounds checks, so their inputs — eligibility
    masks, CSR row pointers, link endpoints, candidate pair ids and
    scores — are validated before any C call; the numpy join refuses
    the same malformed masks.
    """
