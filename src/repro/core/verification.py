"""Verification phase (Fig. 3, right).

A verification request is one recording: preprocess, extract the
MandiblePrint, project with the user's Gaussian matrix, compare against
the sealed template by cosine distance, accept iff within threshold.
:func:`verify_batch` decides a whole stack of requests in one vectorised
pass through the :class:`repro.core.engine.InferenceEngine`; the
single-recording helpers delegate to the same engine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import InferenceEngine
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import FrontEnd
from repro.core.similarity import accept, cosine_distance, distances_to_template
from repro.dsp.pipeline import Preprocessor
from repro.obs import runtime as obs
from repro.security.cancelable import CancelableTransform
from repro.types import RawRecording, VerificationResult

#: Distance reported for a request whose recording carried no usable
#: vibration; maximal, so it can never be accepted.
REJECTED_DISTANCE = 2.0


def probe_embedding(
    model: TwoBranchExtractor,
    preprocessor: Preprocessor,
    frontend: FrontEnd,
    recording: RawRecording,
) -> np.ndarray:
    """Extract one probe MandiblePrint.

    Thin wrapper over :meth:`InferenceEngine.embed_one`.

    Raises:
        repro.errors.SignalError: (subclass) if the recording contains
            no usable vibration -- the request must be rejected, which
            :func:`verify_recording` translates into a refusal.
    """
    return InferenceEngine(model, preprocessor, frontend).embed_one(recording)


def verify_batch(
    user_id: str,
    engine: InferenceEngine,
    recordings: Sequence[RawRecording],
    template: np.ndarray,
    transform: CancelableTransform,
    threshold: float,
) -> list[VerificationResult]:
    """Decide a batch of verification requests in one vectorised pass.

    Item-for-item this mirrors :func:`verify_recording`: a recording
    without a detectable vibration (e.g. a zero-effort attack) is
    rejected with the maximum distance rather than raising — one bad
    recording never poisons the rest of the batch.  Results come back in
    input order, one per recording.
    """
    outcome = engine.embed(recordings)
    distances = np.full(outcome.batch_size, REJECTED_DISTANCE)
    if outcome.num_ok:
        probes = transform.apply(outcome.values)
        distances[np.asarray(outcome.indices, dtype=np.int64)] = (
            distances_to_template(probes, np.asarray(template, dtype=np.float64))
        )
    ok = outcome.ok_mask()
    degraded = set(int(i) for i in outcome.degraded)
    results = [
        VerificationResult(
            accepted=accept(float(d), threshold),
            distance=float(d),
            threshold=threshold,
            user_id=user_id,
            degraded=idx in degraded,
            # A recording that never produced an embedding is a refusal
            # (failure to acquire); fusion treats the modality as absent.
            exit_stage="full" if ok[idx] else "refused",
        )
        for idx, d in enumerate(distances)
    ]
    if obs.get_registry().enabled:
        for result, usable in zip(results, ok):
            # A request whose recording never produced an embedding is a
            # *refusal* (the sentinel distance), not a biometric reject.
            if not usable:
                obs.inc("decisions_total", decision="refusal")
            elif result.accepted:
                obs.inc("decisions_total", decision="accept")
            else:
                obs.inc("decisions_total", decision="reject")
    return results


def verify_recording(
    user_id: str,
    model: TwoBranchExtractor,
    preprocessor: Preprocessor,
    frontend: FrontEnd,
    recording: RawRecording,
    template: np.ndarray,
    transform: CancelableTransform,
    threshold: float,
) -> VerificationResult:
    """Decide one verification request.

    Thin wrapper over :func:`verify_batch` with a batch of one; kept so
    deployment code that authenticates a single tap stays one call.
    """
    engine = InferenceEngine(model, preprocessor, frontend)
    return verify_batch(
        user_id, engine, [recording], template, transform, threshold
    )[0]


def verify_presented_vector(
    user_id: str,
    presented: np.ndarray,
    template: np.ndarray,
    threshold: float,
) -> VerificationResult:
    """Decide a request that presents a raw vector (replay attacks).

    The replay attacker bypasses the sensor and exhibits a stolen
    cancelable vector directly; the comparison is the same cosine rule.
    """
    distance = cosine_distance(np.asarray(presented, dtype=np.float64), template)
    return VerificationResult(
        accepted=accept(distance, threshold),
        distance=distance,
        threshold=threshold,
        user_id=user_id,
    )
