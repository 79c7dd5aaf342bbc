"""Exit-band calibration: sweep thresholds on held-out trials.

The band ``(t_accept, t_reject)`` trades speed (stage-1 exit fraction)
against decision quality (FAR/FRR drift versus the full pipeline).
:func:`calibrate_cascade` measures both on labelled held-out probes:

1. score every probe with the device's fitted stage-1 gate;
2. decide every probe with the *full* pipeline
   (``verify_many(..., full_pipeline=True)`` — the cascade bypass);
3. sweep candidate bands drawn from the empirical score quantiles
   (accept edges from genuine scores, reject edges from impostor
   scores) and, for each, replay the cascade rule in closed form
   (``score <= t_accept`` accepts, ``score > t_reject`` rejects, as in
   :class:`repro.cascade.policy.ExitPolicy`) — a probe inside the band
   inherits its full-pipeline decision, so no extra model forwards are
   needed;
4. keep the band with the largest stage-1 exit fraction whose FAR and
   FRR *increase* stays within the configured epsilons (one-sided:
   getting better than the full pipeline is never penalised).

If no band is feasible the calibration degrades to the all-borderline
band (every probe pays stage 2 — the cascade becomes a no-op) and says
so via ``feasible=False`` rather than shipping a band that violates
the pinned decision-quality bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import VerificationError
from repro.types import RawRecording


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One candidate band of the threshold sweep.

    Attributes:
        t_accept / t_reject: the band edges.
        exit_fraction: fraction of scored probes exiting at stage 1.
        far / frr: cascade error rates at this band.
        far_delta / frr_delta: increase over the full pipeline
            (clamped at 0 from below — improvements are free).
        feasible: both deltas within the configured epsilons.
    """

    t_accept: float
    t_reject: float
    exit_fraction: float
    far: float
    frr: float
    far_delta: float
    frr_delta: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class CascadeCalibration:
    """Result of :func:`calibrate_cascade`.

    Attributes:
        t_accept / t_reject: the chosen band (all-borderline when
            infeasible).
        feasible: whether any swept band met the epsilon bounds.
        exit_fraction: stage-1 exit fraction at the chosen band.
        full_far / full_frr: the full-pipeline baseline error rates.
        points: every swept band, for the speed-vs-EER curve.
    """

    t_accept: float
    t_reject: float
    feasible: bool
    exit_fraction: float
    full_far: float
    full_frr: float
    points: tuple[SweepPoint, ...]


def _error_rates(accepted: np.ndarray, genuine: np.ndarray) -> tuple[float, float]:
    """(FAR, FRR) for boolean accept decisions against labels."""
    impostors = ~genuine
    far = float(accepted[impostors].mean()) if impostors.any() else 0.0
    frr = float((~accepted[genuine]).mean()) if genuine.any() else 0.0
    return far, frr


def _quantile_grid(scores: np.ndarray, grid_size: int) -> np.ndarray:
    if scores.size == 0:
        return np.empty(0)
    return np.unique(np.quantile(scores, np.linspace(0.0, 1.0, grid_size)))


def calibrate_cascade(
    system,
    user_id: str,
    genuine: list[RawRecording],
    impostor: list[RawRecording],
    grid_size: int = 12,
) -> CascadeCalibration:
    """Sweep exit bands for ``user_id`` on labelled held-out probes.

    Args:
        system: a :class:`repro.core.system.MandiPass` with the cascade
            enabled and ``user_id`` enrolled.
        genuine: held-out recordings of the enrolled user.
        impostor: held-out recordings of other users.
        grid_size: quantile resolution per band edge; the sweep visits
            up to ``grid_size**2`` candidate bands.

    The chosen band is *not* installed; call
    ``system.retune_cascade(calibration.t_accept, calibration.t_reject)``
    to deploy it.
    """
    gate = system.cascade_gate
    if gate is None or not gate.has_user(user_id):
        raise VerificationError(
            "calibration needs an enabled cascade with a fitted reference"
        )
    config = system.config.cascade
    recordings = list(genuine) + list(impostor)
    labels = np.array([True] * len(genuine) + [False] * len(impostor))

    signals, indices, _, _ = system.preprocessor.process_batch_detailed(
        recordings, min_usable_axes=system.config.resilience.min_usable_axes
    )
    if len(signals) == 0:
        raise VerificationError("no calibration recording survived preprocessing")
    indices = np.asarray(indices, dtype=np.int64)
    scores = gate.scores(user_id, signals)
    genuine_mask = labels[indices]

    # Full-pipeline baseline decisions, aligned to the scored rows.
    # (A refused probe is refused under both paths — zero delta — so
    # the sweep only reasons over preprocessing survivors.)
    full_results = system.verify_many(user_id, recordings, full_pipeline=True)
    full_accepted = np.array([full_results[int(i)].accepted for i in indices])
    full_far, full_frr = _error_rates(full_accepted, genuine_mask)

    accept_edges = _quantile_grid(scores[genuine_mask], grid_size)
    reject_edges = _quantile_grid(scores[~genuine_mask], grid_size)
    if reject_edges.size == 0:
        reject_edges = np.array([float(scores.max()) + 1.0])
    if accept_edges.size == 0:
        accept_edges = np.array([0.0])

    points: list[SweepPoint] = []
    best: SweepPoint | None = None
    for t_accept in accept_edges:
        for t_reject in reject_edges:
            if t_reject < t_accept:
                continue
            exit_accept = scores <= t_accept
            exit_reject = scores > t_reject
            exited = exit_accept | exit_reject
            accepted = np.where(exited, exit_accept, full_accepted)
            far, frr = _error_rates(accepted, genuine_mask)
            far_delta = max(0.0, far - full_far)
            frr_delta = max(0.0, frr - full_frr)
            feasible = (
                far_delta <= config.epsilon_far and frr_delta <= config.epsilon_frr
            )
            point = SweepPoint(
                t_accept=float(t_accept),
                t_reject=float(t_reject),
                exit_fraction=float(exited.mean()),
                far=far,
                frr=frr,
                far_delta=far_delta,
                frr_delta=frr_delta,
                feasible=feasible,
            )
            points.append(point)
            if feasible and (
                best is None
                or point.exit_fraction > best.exit_fraction
                or (
                    point.exit_fraction == best.exit_fraction
                    and point.far_delta + point.frr_delta
                    < best.far_delta + best.frr_delta
                )
            ):
                best = point
    if best is None:
        return CascadeCalibration(
            t_accept=0.0,
            t_reject=float(scores.max()) + 1.0,
            feasible=False,
            exit_fraction=0.0,
            full_far=full_far,
            full_frr=full_frr,
            points=tuple(points),
        )
    return CascadeCalibration(
        t_accept=best.t_accept,
        t_reject=best.t_reject,
        feasible=True,
        exit_fraction=best.exit_fraction,
        full_far=full_far,
        full_frr=full_frr,
        points=tuple(points),
    )
