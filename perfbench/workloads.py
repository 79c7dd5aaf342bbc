"""The four workloads, their oracles and their metrics.

Each workload function takes a :class:`Context` (recording bank and
seed), a run length and a number of set-up builds.  It times each build
for ``setup_s``, drives one system for ``seconds`` and checks every
output.  Every timing is kept with the moment it was taken, and a
:class:`~perfbench.hostspeed.HostSpeed` samples the host's speed around
them, so that the report can scale them to the reference speed.  With
a :class:`~perfbench.tracing.Tracer` it also wraps each operation in a
root span so per-layer self times can be attributed per request.  See ``perfbench/NOTES.md`` for why each
workload exists.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import time

import numpy as np

from repro.config import StreamConfig
from repro.core.similarity import cosine_distance
from repro.obs import runtime as obs
from repro.security.cancelable import CancelableTransform
from repro.serve.server import AuthFuture, AuthServer
from repro.stream.session import SessionState, StreamSession

from perfbench import substrate
from perfbench.hostspeed import HostSpeed
from perfbench.tracing import REQUEST, Tracer

#: Distances from two call paths (batch of one vs a larger batch) may
#: differ by BLAS re-association; decisions within this of the
#: threshold may therefore differ too.
DISTANCE_TOL = 1e-9

VERIFY_USERS = 16
IDENTIFY_USERS = 256
ENROLL_TRIALS = 3
#: Verify-stream mix: genuine / impostor / no vibration.
MIX = (0.70, 0.25, 0.05)
#: identify-churn: one mutation per this many identifies, kinds cycling
#: in this order (adapt twice, so the median mutation is an adapt).
IDENTIFIES_PER_MUTATION = 8
MUTATION_CYCLE = ("enroll", "adapt", "revoke", "renew", "adapt")

#: serve-open: fixed offered rates (requests/s) and the latency limit.
LOW_RPS = 40.0
HIGH_RPS = 60.0
LADDER_RPS = tuple(round(30.0 * 1.1**k, 1) for k in range(16))
LATENCY_LIMIT_S = 0.100
#: One serve-open cycle: a low-rate window, a high-rate window and one
#: ladder probe; the run repeats it (windows scaled to fill the run).
LOW_WINDOW_S, HIGH_WINDOW_S, RUNG_WINDOW_S = 2.0, 1.0, 1.0
SERVE_CYCLE_S = LOW_WINDOW_S + HIGH_WINDOW_S + RUNG_WINDOW_S

#: stream: chunking, one EMM per this many feed samples.
STREAM_CHUNK = 35
STREAM_PERIOD = 700
#: Distinct feed periods, drawn in a seeded order.
STREAM_POOL = 32
#: Every this many feed periods, each of the other enrolled users
#: adapts their template once, back to back.  The first write of a
#: burst pays for caches the stream has taken over; a fixed burst size
#: keeps that share of the writes the same on every seed.
STREAM_PERIODS_PER_ADAPT = 16
#: Quiet samples pushed after the last EMM so its onset can confirm.
STREAM_TAIL = 350
#: Samples per EMM recording (0.6 s at 350 Hz).
EMM_SAMPLES = 210
#: How far before an EMM's first sample its refined onset may fall.
ONSET_SLACK = 70


@dataclasses.dataclass
class Context:
    bank: substrate.Bank
    seed: int

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])


@dataclasses.dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    speed: HostSpeed = dataclasses.field(default_factory=HostSpeed)
    setup_s: list = dataclasses.field(default_factory=list)
    latencies_s: list = dataclasses.field(default_factory=list)
    latency_at: list = dataclasses.field(default_factory=list)  # moment of each
    mutations_s: list = dataclasses.field(default_factory=list)
    mutation_at: list = dataclasses.field(default_factory=list)
    high_latencies_s: list = dataclasses.field(default_factory=list)
    #: Closed loops and stream: ``(moment, seconds)`` of the measured
    #: work, which ``completed`` operations and ``samples`` divide by.
    busy: list = dataclasses.field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0  # serve-open: wall seconds of its rate windows
    samples: int = 0  # raw IMU samples the measured operations consumed
    throughput_rps: float = 0.0  # serve-open: completions/s at the high rate
    max_rate_rps: float = 0.0  # serve-open's ladder result
    gate: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)
    #: Per-request attribution (filled only in traced runs).
    rows: dict = dataclasses.field(default_factory=dict)
    background: dict = dataclasses.field(default_factory=dict)
    total_ms: float = 0.0
    per_unit: str = "request"
    counters: dict = dataclasses.field(default_factory=dict)
    histograms: dict = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# verification population and its reference oracle


@dataclasses.dataclass
class VerifyPopulation:
    """16 enrolled users, their genuine probes and impostor probes."""

    users: list  # uid per enrolled bank person
    people: list  # bank index per uid
    enroll_trials: dict  # uid -> trial indices
    genuine: dict  # uid -> list of probe keys
    impostor: dict  # uid -> list of probe keys
    silent: list  # probe keys of no-vibration recordings
    recordings: dict  # probe key -> recording
    seeds: dict  # uid -> transform seed


def verify_population(ctx: Context) -> VerifyPopulation:
    rng = ctx.rng(1)
    bank = ctx.bank
    chosen = rng.choice(bank.recordings.shape[0], VERIFY_USERS * 2, replace=False)
    enrolled, outsiders = chosen[:VERIFY_USERS], chosen[VERIFY_USERS:]
    recordings: dict = {}
    users, people, enroll_trials, genuine, seeds = [], [], {}, {}, {}
    for person in enrolled:
        uid = f"p{int(person)}"
        order = rng.permutation(bank.recordings.shape[1])
        users.append(uid)
        people.append(int(person))
        enroll_trials[uid] = [int(t) for t in order[:ENROLL_TRIALS]]
        genuine[uid] = []
        for trial in order[ENROLL_TRIALS:]:
            key = ("bank", int(person), int(trial))
            recordings[key] = bank.recordings[person, trial]
            genuine[uid].append(key)
        seeds[uid] = int(rng.integers(1, 2**31))
    outsider_keys = []
    for person in outsiders:
        for trial in range(bank.recordings.shape[1]):
            key = ("bank", int(person), trial)
            recordings[key] = bank.recordings[person, trial]
            outsider_keys.append(key)
    impostor = {}
    for uid in users:
        others = [k for u in users if u != uid for k in genuine[u]]
        pool = outsider_keys + others
        picks = rng.choice(len(pool), 8, replace=False)
        impostor[uid] = [pool[int(i)] for i in picks]
    silent = []
    n = bank.recordings.shape[2]
    for i in range(4):
        key = ("silent", i)
        like = bank.recordings[int(rng.choice(enrolled)), 0]
        recordings[key] = bank.silence(rng, n, like)
        silent.append(key)
    return VerifyPopulation(
        users, people, enroll_trials, genuine, impostor, silent, recordings, seeds
    )


def enroll_verify_users(system, pop: VerifyPopulation, bank, outcome: Outcome | None) -> None:
    """Enroll the population; each enrollment is a mutation of ``outcome``."""
    for uid, person in zip(pop.users, pop.people):
        recs = [bank.recordings[person, t] for t in pop.enroll_trials[uid]]
        start = time.perf_counter()
        system.enroll(uid, recs, transform_seed=pop.seeds[uid])
        if outcome is not None:
            outcome.mutations_s.append(time.perf_counter() - start)
            outcome.mutation_at.append(start)


def verify_ops(pop: VerifyPopulation, rng: np.random.Generator):
    """Endless ``(uid, probe key)`` stream with the genuine/impostor/silent mix."""
    while True:
        uid = pop.users[int(rng.integers(len(pop.users)))]
        draw = rng.random()
        if draw < MIX[0]:
            keys = pop.genuine[uid]
        elif draw < MIX[0] + MIX[1]:
            keys = pop.impostor[uid]
        else:
            keys = pop.silent
        yield uid, keys[int(rng.integers(len(keys)))]


class VerifyReference:
    """Direct ``verify_many`` on every (user, probe) pair the workload uses."""

    def __init__(self, system, pop: VerifyPopulation) -> None:
        self.threshold = system.config.decision.threshold
        self.table: dict = {}
        for uid in pop.users:
            keys = pop.genuine[uid] + pop.impostor[uid] + pop.silent
            results = system.verify_many(uid, [pop.recordings[k] for k in keys])
            for key, result in zip(keys, results):
                self.table[(uid, key)] = result
        genuine = [self.table[(u, k)].accepted for u in pop.users for k in pop.genuine[u]]
        impostor = [self.table[(u, k)].accepted for u in pop.users for k in pop.impostor[u]]
        silent = [self.table[(u, k)].exit_stage == "refused" for u in pop.users for k in pop.silent]
        self.gate = {
            "genuine_accept": float(np.mean(genuine)),
            "impostor_accept": float(np.mean(impostor)),
            "silent_refused": float(np.mean(silent)),
        }

    def check(self, uid, result, expected) -> str | None:
        """None when ``result`` agrees with the direct call ``expected``."""
        if result is None:
            return "no result"
        refused, want_refused = result.exit_stage == "refused", expected.exit_stage == "refused"
        if refused != want_refused:
            return f"refusal mismatch for {uid}: {refused} vs {want_refused}"
        if refused:
            return None if result.distance == expected.distance else "refusal distance"
        if abs(result.distance - expected.distance) > DISTANCE_TOL:
            return f"distance {result.distance!r} vs {expected.distance!r}"
        if result.accepted != expected.accepted and (
            abs(expected.distance - self.threshold) > DISTANCE_TOL
        ):
            return "decision mismatch"
        return None


class GateError(RuntimeError):
    """The substrate does not discriminate; the run must not report."""


def check_gate(gate: dict) -> None:
    """The substrate gate: refuse to report on non-discriminating weights."""
    problems = []
    if gate["genuine_accept"] < substrate.GATE_MIN_GENUINE_ACCEPT:
        problems.append(f"genuine accept {gate['genuine_accept']:.2f}")
    if gate["impostor_accept"] > substrate.GATE_MAX_IMPOSTOR_ACCEPT:
        problems.append(f"impostor accept {gate['impostor_accept']:.2f}")
    if gate.get("silent_refused", 1.0) < 1.0:
        problems.append("a no-vibration probe was not refused")
    if gate.get("rerank_fraction", 0.0) >= 1.0:
        problems.append("gallery rerank pool is every user")
    if problems:
        raise GateError("substrate gate failed: " + "; ".join(problems))


def build_verify_system(ctx: Context, pop: VerifyPopulation, outcome: Outcome | None):
    """Load weights, build the deployed system, enroll, warm one verify."""
    system = substrate.deployed_system(substrate.load_model())
    enroll_verify_users(system, pop, ctx.bank, outcome)
    uid = pop.users[0]
    system.verify(uid, pop.recordings[pop.genuine[uid][0]])
    return system


@contextlib.contextmanager
def measuring(tracer: Tracer | None, out: Outcome):
    """Scope of the measured operations.

    Objects that exist when it opens (bank, populations, the systems)
    are frozen out of the garbage collector's scans, so collection
    pauses during the run reflect what the run allocates rather than
    the size of the benchmark's own inputs.  In a traced run it also
    collects ``repro.obs`` counts over exactly these operations.
    """
    gc.collect()
    gc.freeze()
    try:
        if tracer is None:
            yield
            return
        with obs.collecting() as registry:
            yield
        snapshot = registry.to_dict()
        out.counters = snapshot["counters"]
        out.histograms = snapshot["histograms"]
    finally:
        gc.unfreeze()


def run_op(tracer: Tracer | None, roots: list, call):
    """``(result or raised exception, start, seconds)`` of one timed
    operation, under a request root span when tracing."""
    root = tracer.open(REQUEST) if tracer else None
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # every failure is counted; the run goes on
        result = exc
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        roots.append(root)
    return result, start, elapsed


def timed_build(build, outcome: Outcome):
    """One timed set-up; its seconds go to ``setup_s``."""
    gc.collect()
    start = time.perf_counter()
    built = build()
    outcome.setup_s.append(time.perf_counter() - start)
    return built


def repeated_setup(build, reps: int, outcome: Outcome):
    """Build ``reps`` times back to back, timing each; keep the last build."""
    built = None
    for _ in range(reps):
        built = None  # release the previous build before the next one
        built = timed_build(build, outcome)
    return built


# ---------------------------------------------------------------------------
# verify-seq


def verify_seq(ctx: Context, seconds: float, tracer: Tracer | None, setup_reps: int) -> Outcome:
    out = Outcome()
    pop = verify_population(ctx)
    build = lambda: build_verify_system(ctx, pop, out)  # noqa: E731
    system = timed_build(build, out)
    reference = VerifyReference(system, pop)
    out.gate = dict(reference.gate)
    check_gate(out.gate)
    ops = verify_ops(pop, ctx.rng(2))
    records = []
    roots = []
    # The other set-up builds are spread through the run (and kept out
    # of its clock), so that setup_s and the enrollment latencies sample
    # more than one moment of a machine whose speed drifts.
    checkpoints = [seconds * k / setup_reps for k in range(1, setup_reps)]
    with measuring(tracer, out):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            measured = seconds - (deadline - time.perf_counter())
            if checkpoints and measured >= checkpoints[0]:
                checkpoints.pop(0)
                paused = time.perf_counter()
                timed_build(build, out)
                deadline += time.perf_counter() - paused
            deadline += out.speed.maybe_sample()
            uid, key = next(ops)
            recording = pop.recordings[key]
            result, start, elapsed = run_op(
                tracer, roots, lambda: system.verify(uid, recording)
            )
            out.latencies_s.append(elapsed)
            out.latency_at.append(start)
            out.samples += recording.shape[0]
            records.append((uid, key, result))
    for uid, key, result in records:
        out.attempted += 1
        if isinstance(result, Exception):
            out.fail(f"verify raised {result!r}")
            continue
        problem = reference.check(uid, result, reference.table[(uid, key)])
        if problem:
            out.fail(problem)
    out.busy = list(zip(out.latency_at, out.latencies_s))
    out.completed = len(out.latencies_s)
    if tracer:
        attribute_roots(out, tracer, roots)
    return out


# ---------------------------------------------------------------------------
# identify-churn


@dataclasses.dataclass
class ChurnPopulation:
    initial: list  # bank person indices enrolled at setup
    newcomers: list  # bank person indices enrolled during the run
    enroll_trials: dict  # person -> trial indices
    probe_trials: dict  # person -> trial indices
    seeds: dict  # person -> transform seed


def churn_population(ctx: Context) -> ChurnPopulation:
    rng = ctx.rng(3)
    count = ctx.bank.recordings.shape[0]
    order = [int(p) for p in rng.permutation(count)]
    enroll_trials, probe_trials, seeds = {}, {}, {}
    for person in order:
        trials = [int(t) for t in rng.permutation(ctx.bank.recordings.shape[1])]
        enroll_trials[person] = trials[:ENROLL_TRIALS]
        probe_trials[person] = trials[ENROLL_TRIALS:]
        seeds[person] = int(rng.integers(1, 2**31))
    return ChurnPopulation(
        order[:IDENTIFY_USERS], order[IDENTIFY_USERS:], enroll_trials, probe_trials, seeds
    )


def build_identify_system(ctx: Context, pop: ChurnPopulation):
    system = substrate.deployed_system(substrate.load_model())
    bank = ctx.bank
    for person in pop.initial:
        recs = [bank.recordings[person, t] for t in pop.enroll_trials[person]]
        system.enroll(f"p{person}", recs, transform_seed=pop.seeds[person])
    system.warm_gallery()
    first = pop.initial[0]
    system.identify(bank.recordings[first, pop.probe_trials[first][0]])
    return system


class Mirror:
    """The enrolled set as the benchmark last observed it, in enrollment
    order: ``uid -> (version, transform seed, template)``."""

    def __init__(self) -> None:
        self.state: collections.OrderedDict = collections.OrderedDict()
        self.version = 0
        self.snapshot = None

    def observe(self, system, uid: str) -> None:
        record = system.enclave.unseal(uid)
        self.version += 1
        entry = (self.version, int(record.transform_seed), np.array(record.template))
        self.state[uid] = entry  # an existing key keeps its position
        self.snapshot = None

    def drop(self, uid: str) -> None:
        del self.state[uid]
        self.snapshot = None

    def frozen(self):
        if self.snapshot is None:
            self.snapshot = tuple(self.state.items())
        return self.snapshot


def identify_churn(ctx: Context, seconds: float, tracer: Tracer | None, setup_reps: int) -> Outcome:
    out = Outcome()
    pop = churn_population(ctx)
    bank = ctx.bank
    system = repeated_setup(lambda: build_identify_system(ctx, pop), setup_reps, out)
    threshold = system.config.decision.threshold
    mirror = Mirror()
    for person in pop.initial:
        mirror.observe(system, f"p{person}")
    identify_gate(system, ctx, pop, out)

    rng = ctx.rng(4)
    enrolled = list(pop.initial)  # bank persons currently enrolled
    waiting = list(pop.newcomers)  # persons not enrolled now
    uid_of = {p: f"p{p}" for p in range(bank.recordings.shape[0])}
    identifies = []  # (probe key, mirror snapshot, result)
    roots = []
    step = 0
    cycle = 0
    with measuring(tracer, out):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            deadline += out.speed.maybe_sample()
            step += 1
            if step % (IDENTIFIES_PER_MUTATION + 1):
                if rng.random() < 0.8 or not waiting:
                    person = enrolled[int(rng.integers(len(enrolled)))]
                else:
                    person = waiting[int(rng.integers(len(waiting)))]
                trials = pop.probe_trials[person]
                trial = trials[int(rng.integers(len(trials)))]
                recording = bank.recordings[person, trial]
                result, start, elapsed = run_op(
                    tracer, roots, lambda: system.identify(recording)
                )
                out.latencies_s.append(elapsed)
                out.latency_at.append(start)
                out.samples += recording.shape[0]
                identifies.append(((person, trial), mirror.frozen(), result))
                continue
            kind = MUTATION_CYCLE[cycle % len(MUTATION_CYCLE)]
            cycle += 1
            if kind == "enroll":
                person = waiting.pop(int(rng.integers(len(waiting))))
                uid = uid_of[person] = f"p{person}n{cycle}"  # a fresh identity
                recs = [bank.recordings[person, t] for t in pop.enroll_trials[person]]
                seed = pop.seeds[person] + cycle
                call = lambda: system.enroll(uid, recs, transform_seed=seed)  # noqa: E731
            else:
                person = enrolled[int(rng.integers(len(enrolled)))]
                uid = uid_of[person]
                if kind == "adapt":
                    recording = bank.recordings[person, pop.probe_trials[person][0]]
                    call = lambda: system.adapt_template(uid, recording)  # noqa: E731
                elif kind == "renew":
                    recs = [bank.recordings[person, t] for t in pop.enroll_trials[person]]
                    call = lambda: system.renew(uid, recs)  # noqa: E731
                else:
                    call = lambda: system.revoke(uid)  # noqa: E731
            result, start, elapsed = run_op(tracer, roots, call)
            out.mutations_s.append(elapsed)
            out.mutation_at.append(start)
            out.attempted += 1
            if isinstance(result, Exception):
                out.fail(f"{kind} raised {result!r}")
                continue
            if kind == "enroll":
                enrolled.append(person)
                mirror.observe(system, uid)
            elif kind == "revoke":
                enrolled.remove(person)
                waiting.append(person)
                mirror.drop(uid)
            else:
                mirror.observe(system, uid)
    out.busy = list(zip(out.latency_at, out.latencies_s))
    out.busy += zip(out.mutation_at, out.mutations_s)
    out.completed = len(out.busy)
    out.extra["mutations"] = len(out.mutations_s)
    check_identifies(system, bank, identifies, threshold, out)
    if tracer:
        attribute_roots(out, tracer, roots)
        alive = [len(snapshot) for _, snapshot, _ in identifies]
        out.extra["mean_alive"] = float(np.mean(alive)) if alive else 0.0
    return out


def identify_gate(system, ctx: Context, pop: ChurnPopulation, out: Outcome) -> None:
    """Genuine/impostor separation on 16 users and the rerank pool share."""
    bank = ctx.bank
    users = pop.initial[:VERIFY_USERS]
    genuine, impostor = [], []
    for i, person in enumerate(users):
        uid = f"p{person}"
        others = [users[(i + k) % len(users)] for k in range(1, 5)]
        others += pop.newcomers[4 * i: 4 * i + 4]
        probes = [bank.recordings[person, t] for t in pop.probe_trials[person]]
        wrong = [bank.recordings[p, pop.probe_trials[p][0]] for p in others]
        results = system.verify_many(uid, probes + wrong)
        genuine += [r.accepted for r in results[: len(probes)]]
        impostor += [r.accepted for r in results[len(probes):]]
    probes = [bank.recordings[p, pop.probe_trials[p][0]] for p in users]
    with obs.collecting() as registry:
        system.identify_many(probes)
    pool = registry.to_dict()["histograms"]["gallery_rerank_pool"]
    out.gate = {
        "genuine_accept": float(np.mean(genuine)),
        "impostor_accept": float(np.mean(impostor)),
        "rerank_fraction": pool["sum"] / pool["count"] / IDENTIFY_USERS,
    }
    check_gate(out.gate)


def check_identifies(system, bank, identifies, threshold, out: Outcome) -> None:
    """Each identify against the per-user loop ``cosine_distance(probe @ M, t)``.

    The argmin over every user alive at the time of the call must equal
    the reported user and distance bitwise.  Distances of every user
    are first bounded with one matrix product per user version; only
    users within ``DISTANCE_TOL`` of the reported distance are replayed
    exactly (one ``probe @ matrix`` each), which is the loop's own
    arithmetic.
    """
    security = system.config.security

    def matrix_for(seed: int) -> np.ndarray:
        return CancelableTransform(security.template_dim, security.projected_dim, seed).matrix

    embeddings = {}
    for key, _, _ in identifies:
        if key not in embeddings:
            outcome = system.engine.embed([bank.recordings[key]])
            embeddings[key] = outcome.values[0] if outcome.num_ok else None
    # Pass 1: approximate distances per (user version, probe).
    by_version: dict = collections.defaultdict(set)
    versions = {}
    for key, snapshot, _ in identifies:
        for uid, (version, seed, template) in snapshot:
            versions[(uid, version)] = (seed, template)
            if embeddings[key] is not None:
                by_version[(uid, version)].add(key)
    approx = {}
    for (uid, version), keys in by_version.items():
        keys = sorted(keys)
        seed, template = versions[(uid, version)]
        matrix = matrix_for(seed)
        projected = np.stack([embeddings[k] for k in keys]) @ matrix
        cos = projected @ template / (
            np.linalg.norm(projected, axis=1) * np.linalg.norm(template)
        )
        for key, distance in zip(keys, 1.0 - cos):
            approx[(key, uid, version)] = float(distance)
    # Pass 2: exact replay for near-best candidates.
    need: dict = collections.defaultdict(list)
    plans = []
    for key, snapshot, result in identifies:
        out.attempted += 1
        if isinstance(result, Exception):
            out.fail(f"identify raised {result!r}")
            plans.append(None)
            continue
        if embeddings[key] is None:
            if result is not None:
                out.fail("identify answered an unusable recording")
            plans.append(None)
            continue
        if result is None:
            out.fail("identify refused a usable recording")
            plans.append(None)
            continue
        bounds = np.array([approx[(key, uid, version)] for uid, (version, _, _) in snapshot])
        near = np.flatnonzero(bounds <= result.distance + DISTANCE_TOL)
        candidates = [snapshot[int(i)][0] for i in near]
        if result.user_id not in candidates:
            candidates.append(result.user_id)
        plans.append((key, snapshot, result, candidates))
        lookup = dict(snapshot)
        for uid in candidates:
            if uid in lookup:
                need[(uid, lookup[uid][0])].append(key)
    exact = {}
    for (uid, version), keys in need.items():
        seed, template = versions[(uid, version)]
        matrix = matrix_for(seed)
        for key in keys:
            exact[(key, uid, version)] = cosine_distance(embeddings[key] @ matrix, template)
    for plan in plans:
        if plan is None:
            continue
        key, snapshot, result, candidates = plan
        lookup = dict(snapshot)
        order = {uid: position for position, (uid, _) in enumerate(snapshot)}
        if result.user_id not in lookup:
            out.fail(f"identify returned non-enrolled {result.user_id}")
            continue
        best = min(
            (exact[(key, uid, lookup[uid][0])], order[uid], uid)
            for uid in candidates
            if uid in lookup
        )
        if best[2] != result.user_id or best[0] != result.distance:
            out.fail(f"identify {result.user_id}@{result.distance!r} vs loop {best[2]}@{best[0]!r}")
        elif result.accepted != (result.distance <= threshold):
            out.fail("identify decision disagrees with the threshold")


# ---------------------------------------------------------------------------
# serve-open


class Settlements:
    """Stamps the moment each :class:`AuthFuture` settles."""

    def __init__(self) -> None:
        self.at: dict[int, float] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = AuthFuture._settle
        stamps = self.at

        def _settle(future, value, error, status):
            settled = original(future, value, error, status)
            if settled:
                stamps[id(future)] = time.perf_counter()
            return settled

        AuthFuture._settle = _settle

    def uninstall(self) -> None:
        if self._original is not None:
            AuthFuture._settle = self._original
            self._original = None


def open_loop(server, ops, pop, rate: float, duration: float, rng) -> list:
    """Poisson arrivals at ``rate`` for ``duration`` seconds from one thread.

    Returns ``(due, sent, uid, key, future)`` per request; the caller
    waits for the futures.
    """
    sent = []
    start = time.perf_counter() + 0.005
    due = start
    end = start + duration
    while True:
        due += float(rng.exponential(1.0 / rate))
        if due >= end:
            break
        uid, key = next(ops)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        now = time.perf_counter()
        sent.append((due, now, uid, key, server.verify(uid, pop.recordings[key])))
    return sent


def settle_all(sent, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    for *_, future in sent:
        future.wait(max(deadline - time.monotonic(), 0.0))


def phase_latencies(sent, settlements: Settlements) -> list:
    return [
        settlements.at[id(f)] - due if id(f) in settlements.at else float("inf")
        for due, _, _, _, f in sent
    ]


def serve_open(ctx: Context, seconds: float, tracer: Tracer | None, setup_reps: int) -> Outcome:
    out = Outcome()
    pop = verify_population(ctx)
    settlements = Settlements()
    settlements.install()
    servers = []

    def build():
        server = AuthServer(build_verify_system(ctx, pop, out)).start()
        servers.append(server)
        return server

    try:
        server = timed_build(build, out)
        reference = VerifyReference(server.system, pop)
        out.gate = dict(reference.gate)
        check_gate(out.gate)
        ops = verify_ops(pop, ctx.rng(5))
        arrivals = ctx.rng(6)
        low, high = [], []
        ladder = Ladder()
        cycles = max(int(seconds // SERVE_CYCLE_S), 1)
        scale = seconds / (cycles * SERVE_CYCLE_S)
        started = time.perf_counter()
        with measuring(tracer, out):
            # Low, high and ladder windows alternate through the run, so
            # each rate samples the machine at several moments.
            for cycle in range(cycles):
                for rate, window, store in (
                    (LOW_RPS, LOW_WINDOW_S, low),
                    (HIGH_RPS, HIGH_WINDOW_S, high),
                ):
                    sent = open_loop(server, ops, pop, rate, window * scale, arrivals)
                    settle_all(sent)
                    store.extend(sent)
                    out.speed.sample()  # the server is idle between windows
                ladder.probe(server, ops, pop, RUNG_WINDOW_S * scale, arrivals, settlements)
                out.speed.sample()
                if len(out.setup_s) < setup_reps:
                    # Further set-up builds between windows (see verify_seq).
                    paused = time.perf_counter()
                    timed_build(build, out).stop()
                    started += time.perf_counter() - paused
        out.extra["wall_s"] = time.perf_counter() - started
        out.extra["ladder"] = ladder.trail
        out.max_rate_rps = ladder.result()
        out.latencies_s = phase_latencies(low, settlements)
        out.latency_at = [due for due, *_ in low]
        out.high_latencies_s = phase_latencies(high, settlements)
        out.extra["lateness_s"] = [s - d for d, s, *_ in low + high]
        out.busy_s = cycles * (LOW_WINDOW_S + HIGH_WINDOW_S) * scale
        settled = [f for *_, f in high if id(f) in settlements.at]
        out.throughput_rps = len(settled) / (HIGH_WINDOW_S * scale * cycles)
        phases = [low, high]
        out.samples = sum(pop.recordings[k].shape[0] for ph in phases for _, _, _, k, _ in ph)
        for sent in phases:
            for due, _, uid, key, future in sent:
                out.attempted += 1
                check_future(future, uid, key, reference, out)
        if tracer:
            attribute_batches(out, tracer, phases, settlements)
    finally:
        for server in servers:
            server.stop()
        settlements.uninstall()
    return out


def check_future(future, uid, key, reference: VerifyReference, out: Outcome) -> None:
    if not future.done():
        out.fail("request never settled")
        return
    error = future.exception()
    if error is not None:
        out.fail(f"request {future.status.value}: {error!r}")
        return
    problem = reference.check(uid, future.result(), reference.table[(uid, key)])
    if problem:
        out.fail(problem)


class Ladder:
    """Bisection over ``LADDER_RPS`` for the highest rate whose p99 (due
    to settled) stays within ``LATENCY_LIMIT_S`` without a growing
    backlog; one open-loop window per :meth:`probe`."""

    def __init__(self) -> None:
        self.low, self.high = -1, len(LADDER_RPS)
        self.trail: list = []
        # Probe futures stay referenced so that no later future reuses
        # an id that Settlements has already stamped.
        self.sent: list = []

    def probe(self, server, ops, pop, window: float, rng, settlements) -> None:
        if self.high - self.low <= 1:
            return
        mid = (self.low + self.high) // 2
        rate = LADDER_RPS[mid]
        sent = open_loop(server, ops, pop, rate, window, rng)
        self.sent.extend(sent)
        end = sent[-1][0] if sent else time.perf_counter()
        settle_all(sent)
        latencies = phase_latencies(sent, settlements)
        backlog = sum(1 for *_, f in sent if settlements.at.get(id(f), np.inf) > end)
        ok = (
            len(latencies) > 0
            and float(np.percentile(latencies, 99)) <= LATENCY_LIMIT_S
            and backlog <= rate * LATENCY_LIMIT_S
            and all(f.exception() is None for *_, f in sent)
        )
        self.trail.append((rate, ok))
        if ok:
            self.low = mid
        else:
            self.high = mid

    def result(self) -> float:
        return LADDER_RPS[self.low] if self.low >= 0 else LADDER_RPS[0] / 2


# ---------------------------------------------------------------------------
# stream


def stream_periods(ctx: Context, pop: VerifyPopulation, uid: str, rng) -> list:
    """A pool of feed periods: sensor-noise silence, then one EMM."""
    periods = []
    for _ in range(STREAM_POOL):
        if rng.random() < 0.8:
            keys = pop.genuine[uid]
        else:
            keys = pop.impostor[uid]
        emm = pop.recordings[keys[int(rng.integers(len(keys)))]]
        gap = STREAM_PERIOD - emm.shape[0] + int(rng.integers(-35, 36))
        periods.append(np.concatenate([ctx.bank.silence(rng, gap, emm), emm]))
    return periods


def stream(ctx: Context, seconds: float, tracer: Tracer | None, setup_reps: int) -> Outcome:
    out = Outcome()
    pop = verify_population(ctx)
    uid = pop.users[int(ctx.rng(7).integers(len(pop.users)))]
    pool = stream_periods(ctx, pop, uid, ctx.rng(8))
    order = ctx.rng(16)
    others = [other for other in pop.users if other != uid]
    servers = []
    config = StreamConfig(chunk_size=STREAM_CHUNK)

    def build():
        system = build_verify_system(ctx, pop, None)
        server = AuthServer(system).start()
        servers.append(server)
        return server, server.open_stream(uid, stream_config=config)

    def extra_build():
        # Further set-up builds after the feed and after the oracle, so
        # that setup_s samples several moments (see verify_seq).
        if len(out.setup_s) < setup_reps:
            timed_build(build, out)[0].stop()

    fed = []  # pushed pieces, in order
    decisions = []
    roots = []
    try:
        server, session = timed_build(build, out)
        reference_system = server.system
        out.gate = dict(VerifyReference(reference_system, pop).gate)
        check_gate(out.gate)

        def settled(got) -> None:
            now = time.perf_counter()
            for decision in got:
                decisions.append(decision)
                out.latencies_s.append(decision.latency_s)
                out.latency_at.append(now - decision.latency_s)

        def push_all(piece: np.ndarray) -> None:
            start = time.perf_counter()
            for position in range(0, piece.shape[0], STREAM_CHUNK):
                root = tracer.open(REQUEST) if tracer else None
                settled(session.push(piece[position: position + STREAM_CHUNK]))
                if tracer:
                    tracer.close(root)
                    roots.append(root)
                if session.state is SessionState.VERIFYING:
                    # Back-pressure: a session defers every sample that
                    # arrives while a window is in flight, so pushing on
                    # would only grow that backlog.
                    settled(session.drain())
            out.busy.append((start, time.perf_counter() - start))
            fed.append(piece)

        def adapt_other(other: str, step: int) -> None:
            # Another enrolled user's template adapts beside the stream:
            # the write that mutation_p50_ms times.  (Enrollments would not
            # do: the served system's warmed gallery logs each new
            # user's transform matrix until an identify syncs it, and
            # nothing identifies here.)
            probes = pop.genuine[other]
            recording = pop.recordings[probes[step % len(probes)]]
            result, start, elapsed = run_op(
                None, [], lambda: server.system.adapt_template(other, recording)
            )
            out.attempted += 1
            if isinstance(result, Exception):
                out.fail(f"adapt beside the stream raised {result!r}")
                return
            out.mutations_s.append(elapsed)
            out.mutation_at.append(start)

        with measuring(tracer, out):
            deadline = time.perf_counter() + seconds
            try:
                periods = 0
                while time.perf_counter() < deadline:
                    # Between periods no window is in flight: the
                    # session and the serving worker are both idle.
                    if periods % STREAM_PERIODS_PER_ADAPT == STREAM_PERIODS_PER_ADAPT - 1:
                        for other in others:
                            adapt_other(other, periods // STREAM_PERIODS_PER_ADAPT)
                    # After the adaptations, so that no timed write runs
                    # on caches the kernel has just swept.
                    deadline += out.speed.maybe_sample()
                    push_all(pool[int(order.integers(len(pool)))])
                    periods += 1
                # Quiet samples so the last EMM's onset can confirm.
                push_all(ctx.bank.silence(order, STREAM_TAIL, fed[-1][-EMM_SAMPLES:]))
                settled(session.close())
            except Exception as exc:  # counted; the oracle still runs
                out.fail(f"session raised {exc!r}")
        out.extra["wall_s"] = sum(pushed for _, pushed in out.busy)
        out.completed = len(decisions)
        extra_build()
        feed = np.concatenate(fed)
        out.samples = feed.shape[0]
        starts, position = [], 0
        for piece in fed[:-1]:
            starts.append(position + piece.shape[0] - EMM_SAMPLES)
            position += piece.shape[0]
        check_stream(reference_system, uid, feed, starts, decisions, out)
        extra_build()
        if tracer:
            attribute_stream(out, tracer, roots)
    finally:
        for server in servers:
            server.stop()
    return out


def check_stream(system, uid, feed, starts, decisions, out: Outcome) -> None:
    """Served decisions against a synchronous reference session.

    The reference is a system-backed :class:`StreamSession` fed the same
    samples in one call per period: it verifies each captured window
    with a direct ``verify_many`` and decides exactly once per confirmed
    onset.  The served session must give the same decisions, one for
    one, with equal onsets and windows, distances within
    ``DISTANCE_TOL`` and identical refusals.

    Separately, every decision is matched to the EMM whose span (widened
    by ``ONSET_SLACK`` samples at the front for onset refinement)
    contains its onset, and EMMs that got no decision or more than one
    are counted in ``out.extra["emm_not_one_decision"]``.
    """
    reference = StreamSession(uid, system=system, config=StreamConfig(chunk_size=STREAM_CHUNK))
    expected = []
    position = 0
    for end in starts + [feed.shape[0]]:
        expected.extend(reference.push(feed[position:end]))
        position = end
    expected.extend(reference.close())
    threshold = system.config.decision.threshold
    if len(expected) != len(decisions):
        out.attempted += abs(len(expected) - len(decisions))
        out.fail(f"{len(decisions)} served decisions vs {len(expected)} from the reference")
    for got, want in zip(decisions, expected):
        out.attempted += 1
        result = got.result
        if (got.onset, got.window_start, got.window_end) != (
            want.onset, want.window_start, want.window_end
        ):
            out.fail(f"decision window {got.onset}/{got.window_start}:{got.window_end}"
                     f" vs {want.onset}/{want.window_start}:{want.window_end}")
        elif got.status != "ok" or result is None:
            out.fail(f"stream decision {got.status}: {got.error}")
        elif (result.exit_stage == "refused") != (want.result.exit_stage == "refused"):
            out.fail("stream refusal mismatch")
        elif abs(result.distance - want.result.distance) > DISTANCE_TOL:
            out.fail(f"stream distance {result.distance!r} vs {want.result.distance!r}")
        elif result.accepted != want.result.accepted and (
            abs(want.result.distance - threshold) > DISTANCE_TOL
        ):
            out.fail("stream decision mismatch")
    per_emm = collections.Counter()
    for got in decisions:
        for start in starts:
            if start - ONSET_SLACK <= got.onset < start + EMM_SAMPLES:
                per_emm[start] += 1
    odd = sum(1 for start in starts if per_emm[start] != 1)
    out.extra["emm_not_one_decision"] = out.extra.get("emm_not_one_decision", 0) + odd
    out.extra["emms"] = out.extra.get("emms", 0) + len(starts)


# ---------------------------------------------------------------------------
# per-request attribution (traced runs)


def count_extractor_rows(out: Outcome, spans) -> None:
    rows, calls = out.extra.get("extractor_rows", (0, 0))
    for span in spans:
        if span.name == "extractor":
            rows += span.tag
            calls += 1
    out.extra["extractor_rows"] = (rows, calls)


def attribute_roots(out: Outcome, tracer: Tracer, roots: list) -> None:
    """Mean self time per layer over closed-loop request roots."""
    groups = tracer.by_root()
    totals: dict = collections.defaultdict(float)
    for root in roots:
        count_extractor_rows(out, groups.get(id(root), ()))
        for span in groups.get(id(root), ()):
            totals[span.name] += span.self_s
    n = max(len(roots), 1)
    out.total_ms = sum(r.duration for r in roots) / n * 1e3
    out.rows = {name: value / n * 1e3 for name, value in totals.items() if name != REQUEST}
    out.rows["unattributed"] = totals.get(REQUEST, 0.0) / n * 1e3
    out.extra["requests_traced"] = len(roots)


def attribute_batches(out: Outcome, tracer: Tracer, phases, settlements) -> None:
    """Per served request: generator lag, queue wait, its batch's layers."""
    groups = tracer.by_root()
    batch_of = {}
    for span, batch in tracer.batches:
        count_extractor_rows(out, groups.get(id(span), ()))
        for request in batch:
            batch_of[id(request.future)] = (span, request, len(batch))
    totals: dict = collections.defaultdict(float)
    waits, occupancy, latency = [], [], []
    for sent in phases:
        for due, submitted, _, _, future in sent:
            found = batch_of.get(id(future))
            settled = settlements.at.get(id(future))
            if found is None or settled is None:
                continue
            span, request, size = found
            total = settled - due
            wait = span.start - request.submitted_at
            lag = submitted - due
            latency.append(total)
            waits.append(wait)
            occupancy.append(size)
            covered = lag + wait
            for child in groups.get(id(span), ()):
                if child is not span:
                    totals[child.name] += child.self_s
                    covered += child.self_s
            totals["serve.queue_wait"] += wait
            totals["serve.generator_lag"] += lag
            totals["unattributed"] += total - covered
    n = max(len(latency), 1)
    out.total_ms = sum(latency) / n * 1e3
    out.rows = {name: value / n * 1e3 for name, value in totals.items()}
    out.extra["queue_wait_s"] = waits
    out.extra["batch_occupancy"] = occupancy
    out.extra["requests_traced"] = len(latency)


def attribute_stream(out: Outcome, tracer: Tracer, roots: list) -> None:
    """Self time per 1k samples: session-thread rows sum to the push total;
    serving-worker rows (the windows' verification) are background."""
    groups = tracer.by_root()
    kilo = max(out.samples, 1) / 1000.0
    totals: dict = collections.defaultdict(float)
    for root in roots:
        for span in groups.get(id(root), ()):
            totals[span.name] += span.self_s
    background: dict = collections.defaultdict(float)
    waits, occupancy = [], []
    for span, batch in tracer.batches:
        count_extractor_rows(out, groups.get(id(span), ()))
        waits.extend(span.start - request.submitted_at for request in batch)
        occupancy.extend(len(batch) for _ in batch)
        for child in groups.get(id(span), ()):
            if child is not span:
                background[child.name] += child.self_s
    out.total_ms = sum(r.duration for r in roots) / kilo * 1e3
    out.rows = {name: value / kilo * 1e3 for name, value in totals.items() if name != REQUEST}
    out.rows["unattributed"] = totals.get(REQUEST, 0.0) / kilo * 1e3
    decisions = max(len(out.latencies_s), 1)
    out.background = {name: value / decisions * 1e3 for name, value in background.items()}
    out.per_unit = "1k samples"
    out.extra["queue_wait_s"] = waits
    out.extra["batch_occupancy"] = occupancy
    out.extra["requests_traced"] = len(roots)


#: Every workload runs by name.  ``BENCHMARK.json`` lists identify-churn
#: and stream only: verify-seq and serve-open were not steady enough on
#: the reference host (see NOTES.md), but they still run by hand and in
#: the tracing coverage test.
WORKLOADS = {
    "verify-seq": verify_seq,
    "identify-churn": identify_churn,
    "serve-open": serve_open,
    "stream": stream,
}
