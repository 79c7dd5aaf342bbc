"""Exception hierarchy for the MandiPass reproduction.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are
organised by subsystem rather than by severity.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class SignalError(ReproError):
    """Base class for signal acquisition / processing errors."""


class OnsetNotFoundError(SignalError):
    """No vibration onset was detected in a recording.

    Raised by the onset detector when no window satisfies the standard
    deviation rule of the paper's Section IV.  A verification request
    built from such a recording must be rejected, not silently padded.
    """


class SegmentTooShortError(SignalError):
    """A recording does not contain ``n`` samples after the onset."""


class ShapeError(SignalError, ValueError):
    """An array had the wrong shape for the requested operation."""


class ModelError(ReproError):
    """Base class for neural-network / classical-ML errors."""


class NotFittedError(ModelError, RuntimeError):
    """An estimator was used before ``fit`` (or training) was called."""


class SerializationError(ModelError):
    """A model state dict could not be saved or restored."""


class SecurityError(ReproError):
    """Base class for template / enclave security violations."""


class EnclaveSealedError(SecurityError):
    """A sealed enclave slot was accessed without authorisation."""


class TemplateRevokedError(SecurityError):
    """A verification was attempted against a revoked template."""


class EnrollmentError(ReproError):
    """User enrollment could not be completed."""


class VerificationError(ReproError):
    """A verification request could not be evaluated (not a rejection)."""


class TransientError(ReproError):
    """Marker base for failures that are safe to retry.

    A stage that raises a :class:`TransientError` subclass asserts that
    the *same inputs* may succeed on a later attempt (a flaky compute
    unit, an injected fault with a bounded fire budget).  The retry
    policies in :mod:`repro.core.engine` and :mod:`repro.serve` only
    ever retry this class; everything else propagates immediately.
    """


class InjectedFaultError(TransientError):
    """A deterministic fault injected by an active :class:`FaultPlan`.

    Attributes:
        point: the fault-point name that fired (e.g.
            ``"engine.extractor"``).
    """

    def __init__(self, point: str, message: str | None = None) -> None:
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class ServingError(ReproError):
    """Base class for concurrent-serving (:mod:`repro.serve`) errors."""


class AdmissionRejectedError(ServingError):
    """A request was refused admission (bounded queue full, or the
    server is stopped).  The caller should retry later or shed load;
    the request was never evaluated."""


class DeadlineExpiredError(ServingError):
    """A queued request's deadline passed before a worker could batch
    it; the request was shed without being evaluated."""


class WorkerKilledError(ServingError):
    """An injected fault killed a serving worker mid-batch.

    Deliberately *not* transient: the worker thread is gone, so the
    batch cannot be retried in place — the server fails the batch's
    unresolved futures and spawns a replacement worker instead.
    """


class StageTimeoutError(ServingError):
    """A batch call exceeded the configured per-stage timeout.

    The request was shed as *refused* (the underlying call may still be
    running detached); refusing fast beats hanging the whole queue
    behind one stalled stage.
    """


class CircuitOpenError(ServingError):
    """The serving circuit breaker is open; the request was refused
    without being evaluated.  The breaker re-closes after its cooldown
    once a probe batch succeeds."""


class InsufficientAxesError(SignalError):
    """Too few usable IMU axes survived preprocessing.

    Raised by the degraded-mode gate when fewer than
    ``resilience.min_usable_axes`` axes carry finite, live signal
    (sensor dropout, NaN bursts).  A recording failing this gate is a
    refusal, never a biometric reject."""


class StreamStateError(ReproError, RuntimeError):
    """A streaming primitive or session was used out of order.

    Raised e.g. when a :class:`repro.stream.StreamSession` is built
    without exactly one backend, or receives samples after it was
    closed."""
