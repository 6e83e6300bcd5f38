"""Exception hierarchy for the :mod:`repro` bitmap-index library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching unrelated Python
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidBaseError(ReproError, ValueError):
    """A decomposition base is not well-defined.

    The paper requires every base number to satisfy ``b_i >= 2`` and the
    product of base numbers to cover the attribute cardinality.
    """


class ValueOutOfRangeError(ReproError, ValueError):
    """An attribute value lies outside ``[0, C)`` for the index at hand."""


class LengthMismatchError(ReproError, ValueError):
    """Two bitvectors of different lengths were combined."""


class InvalidPredicateError(ReproError, ValueError):
    """A selection predicate uses an unknown comparison operator."""


class StorageError(ReproError):
    """Base class for simulated-storage failures."""


class FileMissingError(StorageError, KeyError):
    """A bitmap file was requested that does not exist on the disk."""


class CorruptFileError(StorageError):
    """A stored bitmap file failed its integrity checks on read."""


class CorruptShardError(CorruptFileError):
    """A shared-memory shard payload failed its checksum on attach.

    Raised worker-side when a published bitmap's CRC disagrees with the
    manifest; the engine treats it as a signal to rebuild the publication
    from the source index and retry.
    """


class ShmAttachError(StorageError):
    """A worker could not attach a published shared-memory shard.

    Raised when the named segment has vanished (the publisher unlinked or
    crashed) or when the fault harness injects an attach failure.  The
    engine retries the dispatch; the publication itself is still owned by
    the parent, so a fresh attach normally succeeds.
    """


class InjectedFaultError(StorageError):
    """An error deliberately injected by a :class:`repro.faults.FaultPlan`.

    Distinct from organic failures so chaos tests (and operators reading
    logs from a fault drill) can tell drills from real incidents.  The
    engine's recovery path treats it exactly like the organic error it
    stands in for.
    """


class QueryTimeoutError(ReproError):
    """A query exceeded its ``QueryOptions.deadline_ms`` budget.

    Raised cooperatively at the evaluator, shard, and storage seams — the
    query never produces a partial (wrong) answer, it raises instead.
    When the query ran with tracing enabled the partial
    :class:`~repro.trace.QueryTrace` collected up to the expiry rides on
    the ``trace`` attribute (``None`` otherwise, and after crossing a
    process boundary).
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.trace = None


class VerificationError(ReproError):
    """An index-answered query disagreed with the ground-truth scan."""


class EmptyFoundsetError(ReproError):
    """MIN, MAX or AVG was asked for over an empty selection."""


class BufferConfigError(ReproError, ValueError):
    """A buffer assignment is not well-defined for the index it targets."""


class EngineConfigError(ReproError, ValueError):
    """A query engine was configured or queried inconsistently.

    Raised for unregistered relations/attributes, invalid worker or cache
    settings, and index-spec overrides that target unserved attributes.
    """


class OptimizationError(ReproError):
    """An index-optimization routine cannot satisfy its constraints.

    Raised, for example, when a space budget is below the global
    space-optimal index size, so no feasible index exists.
    """
