"""Unified error taxonomy for the ALCOP flow (schedule → transform →
sync-verify → simulate → measure).

Every failure mode of the compile/tune/serve stack derives from
:class:`ReproError` and carries a structured ``stage`` (which phase of the
Fig. 4 pipeline failed) plus an optional ``diagnostic`` payload, so callers
can degrade gracefully (:mod:`repro.models.runtime`), quarantine offenders
(:mod:`repro.tuning.measure`) or report precisely (``repro suite``) without
string-matching exception text.

This module is a leaf: it imports nothing from the rest of the package, so
any layer (gpusim, schedule, transform, tuning) can depend on it without
import cycles. Pre-existing error types fold in with back-compat
re-exports:

* ``repro.gpusim.occupancy.CompileError``   is :class:`CompileError`;
* ``repro.schedule.errors.ScheduleError``   is :class:`ScheduleError`;
* ``repro.transform.TransformError``        is :class:`TransformError`;
* ``repro.ir.syncheck.SyncCheckError``      subclasses
  :class:`SyncVerificationError`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = [
    "ReproError",
    "ScheduleError",
    "TransformError",
    "SyncVerificationError",
    "SimulationError",
    "CompileError",
    "MeasurementTimeout",
    "WorkerCrash",
    "FaultInjected",
    "ServeError",
    "ProtocolError",
    "RegistryError",
    "OverloadedError",
    "DeadlineExceededError",
    "DegradationEvent",
]


class ReproError(Exception):
    """Base class of every structured failure in the ALCOP flow.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    diagnostic:
        Optional structured payload (e.g. the offending config, the sync
        diagnostics, the injected fault) for machine consumers.
    """

    #: which phase of the compile/tune flow this error belongs to.
    stage: str = "unknown"

    def __init__(self, message: str = "", *, diagnostic: Optional[object] = None) -> None:
        super().__init__(message)
        self.message = message
        self.diagnostic = diagnostic

    def describe(self) -> str:
        """``[stage] message`` (+ diagnostic when present)."""
        out = f"[{self.stage}] {self.message}"
        if self.diagnostic is not None:
            out += f"\n  diagnostic: {self.diagnostic}"
        return out


class ScheduleError(ReproError):
    """Automatic schedule construction failed (Sec. II rules)."""

    stage = "schedule"


class TransformError(ReproError):
    """The pipelining program transformation rejected the kernel (Sec. III)."""

    stage = "transform"


class SyncVerificationError(ReproError):
    """Static synchronization verification found races in transformed IR."""

    stage = "sync-verify"


class SimulationError(ReproError):
    """The discrete-event GPU simulator failed or produced garbage."""

    stage = "simulate"


class CompileError(ReproError):
    """The kernel cannot be compiled/launched on the target GPU — analogous
    to nvcc register-overflow or over-sized shared memory failures, which
    the paper's Fig. 12 reports as 'compile fail'."""

    stage = "compile"


class MeasurementTimeout(ReproError):
    """A measurement trial exceeded its wall-clock budget (hung worker)."""

    stage = "measure"


class WorkerCrash(ReproError):
    """A measurement worker process died without reporting a result."""

    stage = "measure"


class ServeError(ReproError):
    """The compile-as-a-service layer failed (:mod:`repro.serve`): the
    daemon could not satisfy a request, a client lost its connection, or
    the server reported a structured error envelope. ``diagnostic`` holds
    the remote error payload when one was received."""

    stage = "serve"


class ProtocolError(ServeError):
    """A malformed serve request/response: unparseable JSON, an unknown
    operation, missing/invalid parameters, or a protocol-version mismatch.
    Always a client-side (caller) bug, never a reason to retry."""

    stage = "serve"


class OverloadedError(ServeError):
    """The daemon shed this request at admission: its bounded work queue
    was full. Carries ``retry_after_s``, the server's hint for how long a
    client should back off before retrying — honoured by
    :class:`repro.serve.client.ServeClient` when retries are enabled.
    Always safe to retry; no work was started."""

    stage = "serve"

    def __init__(self, message: str = "", *,
                 retry_after_s: Optional[float] = None,
                 diagnostic: Optional[object] = None) -> None:
        super().__init__(message, diagnostic=diagnostic)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(ServeError):
    """A request ran out of its ``deadline_s`` budget: either it expired
    while queued (rejected before any work started) or its sweep was
    aborted mid-flight by the measurement layer. Work already committed to
    the caches stays committed, so a retried request resumes warm — but
    retrying with the same budget will usually expire again, so the client
    never retries this automatically."""

    stage = "deadline"


class RegistryError(ServeError):
    """The kernel artifact registry is unusable (unwritable directory,
    unrecoverable store state). Individual corrupt artifacts never raise
    this — they are quarantined and treated as misses."""

    stage = "registry"


class FaultInjected(ReproError):
    """An injected fault fired (:mod:`repro.faults`); chaos tests assert on
    this type to separate injected failures from organic ones."""

    stage = "fault"

    def __init__(self, message: str = "", *, site: str = "", kind: str = "",
                 diagnostic: Optional[object] = None) -> None:
        super().__init__(message, diagnostic=diagnostic)
        self.site = site
        self.kind = kind


@dataclasses.dataclass(frozen=True)
class DegradationEvent:
    """One step down the compiler degradation ladder for one operator.

    Recorded whenever a build fails and a more conservative variant (or the
    roofline fallback) is used instead: ``alcop → tvm-db → tvm → roofline``.
    """

    op: str
    from_variant: str
    to_variant: str
    stage: str
    reason: str

    @classmethod
    def from_error(
        cls, op: str, from_variant: str, to_variant: str, exc: BaseException
    ) -> "DegradationEvent":
        """The step taken because ``exc`` failed ``op`` at ``from_variant``:
        its stage (``unknown`` for errors without one) and its message's
        first line (its ``repr`` when the message is empty)."""
        text = str(exc)
        return cls(
            op=op,
            from_variant=from_variant,
            to_variant=to_variant,
            stage=getattr(exc, "stage", "unknown"),
            reason=text.splitlines()[0] if text else repr(exc),
        )

    def __str__(self) -> str:
        return (
            f"{self.op}: {self.from_variant} -> {self.to_variant} "
            f"({self.stage}: {self.reason})"
        )
