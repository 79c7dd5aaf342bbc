"""The benchmark substrate: trained weights, a recording bank, systems.

Everything here is deterministic.  The two expensive, one-time artefacts
(the trained extractor and the recording bank) are cached on disk inside
the checkout under ``.bench_cache`` and are never part of ``setup_s``.
The workload seed only *selects* from the bank (which people enroll,
which trials probe, the operation order, arrival times and stream
feeds), so the same seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import platform

import numpy as np

from repro import MandiPass, Recorder, sample_population
from repro.config import ExtractorConfig, MandiPassConfig
from repro.datasets.cache import DatasetCache
from repro.eval.production import get_production_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_cache"

#: Reduced training corpus for the shipped architecture, trained once
#: per checkout (about 70 s on the reference machine).  Smaller corpora
#: (16 people, 5 or 10 epochs) let the impostor accept rate of some
#: seeds' populations exceed the gate's 0.2; this one stays below 0.12
#: over seeds 41-70.
TRAIN = dict(num_people=32, nominal_trials=10, condition_trials=2, epochs=10)

#: Recording bank: people drawn from the users' population (seed 0,
#: disjoint from the hired training people), trials per person.
BANK_PEOPLE = 320
BANK_TRIALS = 6
BANK_RECORDER_SEED = 11

#: Substrate gate (decision threshold from ``MandiPassConfig()``).
GATE_MIN_GENUINE_ACCEPT = 0.8
GATE_MAX_IMPOSTOR_ACCEPT = 0.2


def model_key() -> str:
    """The cache key :func:`get_production_model` files the weights under
    (the same format; that function does not return it)."""
    from repro.datasets.standard import TRAINING_CONDITIONS

    config = ExtractorConfig()
    return (
        f"model_p{TRAIN['num_people']}n{TRAIN['nominal_trials']}"
        f"c{TRAIN['condition_trials']}e{TRAIN['epochs']}d{config.embedding_dim}"
        f"ch{'-'.join(map(str, config.channels))}fe{config.frontend}"
        f"tc{len(TRAINING_CONDITIONS)}"
    )


def load_model():
    """The shipped architecture, trained once on the reduced corpus."""
    return get_production_model(cache=DatasetCache(CACHE_DIR), **TRAIN)


@dataclasses.dataclass
class Bank:
    """``recordings[p, t]`` is trial ``t`` of bank person ``p``."""

    recordings: np.ndarray  # (BANK_PEOPLE, BANK_TRIALS, n, 6)
    noise_std: np.ndarray  # (6,) sensor-noise floor before onsets

    def silence(
        self, rng: np.random.Generator, length: int, like: np.ndarray
    ) -> np.ndarray:
        """A sensor-noise-only feed with no vibration anywhere in it.

        It rests at the level (gravity and bias) of the first sample of
        the recording ``like``, so a feed can run from this silence into
        that recording without a step, just as the detector's own
        first-sample padding settles its high-pass.
        """
        noise = rng.normal(scale=self.noise_std, size=(length, 6))
        return np.round(like[0] + noise)


def load_bank() -> Bank:
    """Synthesize the recording bank once and cache it."""
    path = CACHE_DIR / f"bank_p{BANK_PEOPLE}t{BANK_TRIALS}s{BANK_RECORDER_SEED}.npz"
    if not path.exists():
        population = sample_population(
            BANK_PEOPLE, round(BANK_PEOPLE * 6 / 34), seed=0
        )
        recorder = Recorder(seed=BANK_RECORDER_SEED)
        recordings = np.stack(
            [recorder.record_session(person, BANK_TRIALS) for person in population]
        )
        # The first 20 samples of every trial precede the earliest
        # onset; their spread is the sensor's noise floor.
        noise_std = np.median(recordings[:, :, :20, :].std(axis=2), axis=(0, 1))
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, recordings=recordings, noise_std=noise_std)
        os.replace(tmp, path)
    with np.load(path) as data:
        return Bank(data["recordings"], data["noise_std"])


def deployed_system(model) -> MandiPass:
    """``MandiPass`` in the deployed configuration: every default."""
    return MandiPass(model, MandiPassConfig())


def machine_stamp(seed: int) -> dict:
    """What a reader needs to compare two results of this benchmark."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "weights_key": model_key(),
    }
