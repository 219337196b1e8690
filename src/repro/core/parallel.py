"""Domain-sharded parallel execution of the Section 4 truth-analysis MLE.

The coordinate iteration of Eqs. 5-6 factors cleanly along expertise
domains: a task's truth (Eq. 5) reads expertise only through its own
domain's column, and a (user, domain) expertise entry (Eq. 6) reads
residuals only from that domain's tasks.  Partitioning the *domains*
across shards therefore partitions the whole per-iteration sweep with no
cross-shard data flow — the only global coupling is the stopping rule,
which looks at every task's truth delta at once.

:class:`ParallelTruthEngine` exploits exactly that structure:

- **planning** — domains are packed into ``n_shards`` shards by greedy
  LPT on per-domain observation counts (deterministic: domains visited
  in descending-count then column order, ties to the emptiest
  lowest-index shard).  Each shard's tasks keep their ascending global
  order, which is what makes the scatter-sums below bit-identical;
- **lockstep iteration** — shards advance in chunks of
  ``chunk_iterations`` Eq. 5-6 sweeps; after each chunk the coordinator
  replays the per-iteration convergence flags in global iteration order
  and applies the serial stopping rule (*all* shards converged, never
  before iteration 2).  A shard whose own tasks have settled keeps
  iterating until the global rule fires, exactly as the serial solver
  keeps re-estimating settled tasks;
- **deterministic reduction** — shard outputs are scattered back in
  domain-column order, so truths, sigmas, and expertise are
  **bit-identical** to :func:`repro.core.truth.estimate_truth` and
  :meth:`repro.core.update.ExpertiseUpdater.incorporate`.  The identity
  rests on two NumPy facts the tests pin: ``np.bincount`` accumulates
  each bin's addends in input order (restricting to a shard's
  ascending task subset preserves that order), and axis reductions of
  C-order matrices produce per-column results independent of which
  other columns are present;
- **process pool** — with ``use_processes`` (default: auto, enabled on
  multi-core hosts) shards run on a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`; the observation
  matrix crosses the process boundary once per solve through a
  ``multiprocessing.shared_memory`` block, and workers cache the
  per-shard sparse structure between chunks.  Worker failures or
  timeouts kill the pool, retry under a
  :class:`~repro.reliability.retry.RetryPolicy`, and finally fall back
  to the serial solver — which is bit-identical anyway, so a fallback
  changes wall-clock, never results.

Robust configurations (Huber/trimmed reweighting, damping, the
weighted-median fallback) delegate to the serial path: the IRLS
reweighting computes per-task statistics from pilot residuals whose
trace-equivalence under sharding is not worth proving for a diagnostics
feature.  ``robust=None`` — the paper's plain MLE and the default
everywhere — runs sharded.

Telemetry: the engine emits the *same* ``mle.iteration`` /
``mle.converged`` / ``mle.non_convergence`` events as the serial solver
(so trace analytics keep working unchanged), plus ``mle.shard.plan`` /
``mle.shard.done`` / ``mle.shard.fallback`` for the sharding layer, and
observes per-shard compute seconds into the
``repro_mle_shard_seconds`` histogram.  Events are buffered and flushed
only when a solve attempt succeeds, so a retried pool failure never
duplicates trace records.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.expertise import DEFAULT_EXPERTISE, clamp_expertise, expertise_from_sums
from repro.core.truth import (
    SIGMA_FLOOR,
    TruthAnalysisResult,
    _SparseObservations,
    _truth_delta,
    _truths_converged,
    estimate_truth,
    update_truths_for_expertise,
)
from repro.core.update import IncorporateResult
from repro.reliability.retry import RetryPolicy
from repro.truthdiscovery.base import ObservationMatrix

__all__ = ["ParallelConfig", "ParallelTruthEngine", "plan_shards", "ShardPlan"]

_LOG = logging.getLogger(__name__)

#: Buckets for the ``repro_mle_shard_seconds`` histogram (shard compute
#: time per solve; sub-millisecond shards are common at test sizes).
SHARD_SECONDS_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


@dataclass(frozen=True)
class ParallelConfig:
    """Sharding and execution knobs for :class:`ParallelTruthEngine`."""

    #: Number of domain shards (1 delegates straight to the serial path).
    n_shards: int = 2
    #: True/False forces pool / in-process execution; None picks the pool
    #: only on multi-core hosts (sharding on one core is pure overhead).
    use_processes: "bool | None" = None
    #: Eq. 5-6 sweeps per lockstep chunk in pool mode.  Larger chunks
    #: amortise the per-chunk round trip but waste up to ``chunk - 1``
    #: sweeps past the convergence point; in-process execution always
    #: uses chunks of 1 (the round trip is free).
    chunk_iterations: int = 8
    #: Seconds a shard chunk may take before the pool is declared wedged.
    job_timeout: "float | None" = 60.0
    #: Retry policy for pool failures (defaults to two attempts).
    retry: "RetryPolicy | None" = None

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.chunk_iterations < 1:
            raise ValueError("chunk_iterations must be at least 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive")


@dataclass(frozen=True)
class ShardPlan:
    """One shard: a set of whole domains and their (ascending) tasks."""

    #: Positions into the solve's domain-column order (ascending).
    domain_cols: tuple
    #: Global task indices handled by this shard (ascending).
    task_indices: np.ndarray
    #: Total observations on this shard's tasks (the LPT load).
    n_observations: int


def plan_shards(
    domain_columns: np.ndarray,
    task_obs_counts: np.ndarray,
    n_domains: int,
    n_shards: int,
) -> list:
    """Pack domains into at most ``n_shards`` shards (deterministic LPT).

    Domains with no tasks are skipped (they have no per-iteration work;
    the coordinator fills their expertise columns directly).  Returns
    :class:`ShardPlan` objects ordered by each shard's smallest domain
    column, so the reduction order is a pure function of the inputs.
    """
    domain_columns = np.asarray(domain_columns)
    domain_obs = np.bincount(
        domain_columns, weights=np.asarray(task_obs_counts, dtype=float), minlength=n_domains
    )
    domain_tasks = np.bincount(domain_columns, minlength=n_domains)
    present = [k for k in range(n_domains) if domain_tasks[k] > 0]
    n_shards = max(1, min(int(n_shards), len(present)))
    order = sorted(present, key=lambda k: (-domain_obs[k], k))
    buckets: list = [[] for _ in range(n_shards)]
    loads = [0.0] * n_shards
    for k in order:
        target = min(range(n_shards), key=lambda i: (loads[i], len(buckets[i]), i))
        buckets[target].append(k)
        loads[target] += float(domain_obs[k])
    plans = []
    for bucket in buckets:
        if not bucket:  # pragma: no cover — n_shards is clamped above
            continue
        cols = tuple(sorted(bucket))
        tasks = np.flatnonzero(np.isin(domain_columns, cols))
        plans.append(
            ShardPlan(
                domain_cols=cols,
                task_indices=tasks,
                n_observations=int(np.asarray(task_obs_counts)[tasks].sum()),
            )
        )
    plans.sort(key=lambda plan: plan.domain_cols[0])
    return plans


# ---------------------------------------------------------------------- #
# Shard kernels (shared by the in-process runner and the pool workers)
# ---------------------------------------------------------------------- #


def _estimate_static(values, mask, task_indices, local_domain_cols, n_local_domains):
    """The loop-invariant sparse structure of one estimate shard."""
    local = ObservationMatrix(values=values[:, task_indices], mask=mask[:, task_indices])
    return _SparseObservations(local, np.asarray(local_domain_cols, dtype=int), n_local_domains)


def _estimate_chunk(sparse, expertise, truths, start_iteration, n_iterations):
    """Run ``n_iterations`` Eq. 5-6 sweeps on one shard.

    Returns one history entry per sweep:
    ``(new_truths, sigmas, expertise, converged, delta)`` — the
    coordinator replays these in global iteration order to apply the
    serial stopping rule.  ``converged``/``delta`` follow the serial
    guard: never computed at iteration 1.
    """
    history = []
    for offset in range(n_iterations):
        iteration = start_iteration + offset
        new_truths, sigmas = sparse.truth_pass(expertise)
        expertise = sparse.expertise_pass(new_truths, sigmas)
        if iteration > 1:
            converged = _truths_converged(new_truths, truths)
            delta = _truth_delta(new_truths, truths)
        else:
            converged, delta = False, None
        history.append((new_truths, sigmas, expertise, converged, delta))
        truths = new_truths
    return history


class _UpdateStatic:
    """The loop-invariant inputs of one incorporate shard."""

    __slots__ = ("observations", "task_domains", "domains", "base_n", "base_d")

    def __init__(self, values, mask, task_indices, task_domains, domains, base_n, base_d):
        self.observations = ObservationMatrix(
            values=values[:, task_indices], mask=mask[:, task_indices]
        )
        self.task_domains = np.asarray(task_domains)
        self.domains = tuple(domains)
        self.base_n = np.asarray(base_n)  # (n_users, len(domains))
        self.base_d = np.asarray(base_d)


def _local_batch_sums(observations, task_domains, truths, sigmas, domains):
    """Eqs. 7-8 fresh sums, exactly as ``ExpertiseUpdater._batch_sums``."""
    mask = observations.mask
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    normalised_sq = np.where(mask, ((observations.values - safe_truths) / sigmas) ** 2, 0.0)
    fresh_n = {}
    fresh_d = {}
    for domain_id in domains:
        tasks = np.flatnonzero(task_domains == domain_id)
        fresh_n[domain_id] = mask[:, tasks].sum(axis=1).astype(float)
        fresh_d[domain_id] = normalised_sq[:, tasks].sum(axis=1)
    return fresh_n, fresh_d


def _update_chunk(static, expertise_block, truths, start_iteration, n_iterations):
    """Run ``n_iterations`` Section 4.2 sweeps on one incorporate shard.

    History entries are ``(new_truths, sigmas, expertise_block, n_block,
    d_block, converged, delta)``; the sum blocks are what a commit at
    that iteration would install.
    """
    domains = static.domains
    history = []
    for offset in range(n_iterations):
        iteration = start_iteration + offset
        expertise = {d: expertise_block[:, j] for j, d in enumerate(domains)}
        task_expertise = np.vstack(
            [expertise[d] for d in static.task_domains.tolist()]
        ).T
        new_truths, sigmas = update_truths_for_expertise(static.observations, task_expertise)
        fresh_n, fresh_d = _local_batch_sums(
            static.observations, static.task_domains, new_truths, sigmas, domains
        )
        n_block = np.empty_like(static.base_n)
        d_block = np.empty_like(static.base_d)
        next_block = np.empty_like(expertise_block)
        for j, d in enumerate(domains):
            n_block[:, j] = static.base_n[:, j] + fresh_n[d]
            d_block[:, j] = static.base_d[:, j] + fresh_d[d]
            next_block[:, j] = expertise_from_sums(n_block[:, j], d_block[:, j])
        expertise_block = next_block
        if iteration > 1:
            converged = _truths_converged(new_truths, truths)
            delta = _truth_delta(new_truths, truths)
        else:
            converged, delta = False, None
        history.append((new_truths, sigmas, expertise_block, n_block, d_block, converged, delta))
        truths = new_truths
    return history


# ---------------------------------------------------------------------- #
# Pool workers
# ---------------------------------------------------------------------- #

#: Per-process caches: attached shared-memory blocks and built shard
#: structures, keyed by the solve's shared-memory name (unique per solve,
#: so a new solve evicts the previous one's cache).
_WORKER_SHM: dict = {}
_WORKER_STATIC: dict = {}


def _worker_arrays(name: str, shape: tuple):
    """Attach (once per process per solve) the solve's observation block."""
    entry = _WORKER_SHM.get(name)
    if entry is None:
        from multiprocessing import shared_memory

        for stale_name, (stale_shm, _, _) in list(_WORKER_SHM.items()):
            stale_shm.close()
            del _WORKER_SHM[stale_name]
        _WORKER_STATIC.clear()
        # Attaching registers the name with the resource tracker, but pool
        # workers share the coordinator's tracker (inherited under fork,
        # handed over under spawn/forkserver) and its registry is a set, so
        # this is a no-op duplicate.  The coordinator owns the segment and
        # its unlink() unregisters it once; a worker must not unregister it
        # too, or the tracker prints a KeyError traceback at that unlink.
        shm = shared_memory.SharedMemory(name=name)
        n_users, n_tasks = shape
        n_values = n_users * n_tasks
        values = np.ndarray(shape, dtype=np.float64, buffer=shm.buf[: n_values * 8])
        mask = np.ndarray(shape, dtype=np.bool_, buffer=shm.buf[n_values * 8 : n_values * 9])
        entry = _WORKER_SHM[name] = (shm, values, mask)
    return entry[1], entry[2]


def _worker_static(payload: dict):
    key = (payload["shm"], payload["kind"], payload["shard"])
    static = _WORKER_STATIC.get(key)
    if static is None:
        values, mask = _worker_arrays(payload["shm"], payload["shape"])
        if payload["kind"] == "estimate":
            static = _estimate_static(
                values,
                mask,
                payload["task_indices"],
                payload["local_domain_cols"],
                payload["n_local_domains"],
            )
        else:
            static = _UpdateStatic(
                values,
                mask,
                payload["task_indices"],
                payload["task_domains"],
                payload["domains"],
                payload["base_n"],
                payload["base_d"],
            )
        _WORKER_STATIC[key] = static
    return static


def _pool_run_chunk(payload: dict):
    """Worker entry point: one shard, one chunk of lockstep iterations."""
    start = time.perf_counter()
    static = _worker_static(payload)
    if payload["kind"] == "estimate":
        history = _estimate_chunk(
            static, payload["expertise"], payload["truths"], payload["start"], payload["n_iterations"]
        )
    else:
        history = _update_chunk(
            static, payload["expertise"], payload["truths"], payload["start"], payload["n_iterations"]
        )
    return payload["shard"], history, time.perf_counter() - start


def _pool_final_pass(payload: dict):
    """Worker entry point: the estimate path's post-loop Eq. 5 pass."""
    start = time.perf_counter()
    static = _worker_static(payload)
    truths, sigmas = static.truth_pass(payload["expertise"])
    return payload["shard"], truths, sigmas, time.perf_counter() - start


class _PoolFailure(RuntimeError):
    """A pool attempt died (worker crash, timeout, broken executor)."""


# ---------------------------------------------------------------------- #
# Runners
# ---------------------------------------------------------------------- #


class _InProcessRunner:
    """Round-robin shard execution in the coordinator process.

    Used for ``use_processes=False``, single-core hosts, and as the
    deterministic harness the bit-identity tests drive.  Chunks of 1:
    with no round-trip cost there is nothing to amortise, so no sweep is
    ever wasted past the convergence point.
    """

    chunk_iterations = 1

    def __init__(self, observations, shard_payloads):
        values, mask = observations.values, observations.mask
        self._statics = []
        for payload in shard_payloads:
            if payload["kind"] == "estimate":
                static = _estimate_static(
                    values,
                    mask,
                    payload["task_indices"],
                    payload["local_domain_cols"],
                    payload["n_local_domains"],
                )
            else:
                static = _UpdateStatic(
                    values,
                    mask,
                    payload["task_indices"],
                    payload["task_domains"],
                    payload["domains"],
                    payload["base_n"],
                    payload["base_d"],
                )
            self._statics.append(static)
        self._kind = shard_payloads[0]["kind"]

    def run_chunk(self, states, start, n_iterations):
        out = []
        chunk = _estimate_chunk if self._kind == "estimate" else _update_chunk
        for static, (expertise, truths) in zip(self._statics, states):
            t0 = time.perf_counter()
            history = chunk(static, expertise, truths, start, n_iterations)
            out.append((history, time.perf_counter() - t0))
        return out

    def final_pass(self, expertise_list):
        out = []
        for static, expertise in zip(self._statics, expertise_list):
            t0 = time.perf_counter()
            truths, sigmas = static.truth_pass(expertise)
            out.append((truths, sigmas, time.perf_counter() - t0))
        return out

    def close(self):
        pass


class _PoolRunner:
    """Shard execution on the engine's persistent process pool.

    The observation matrix is published once per solve through a
    shared-memory block (values as float64, mask as one byte per entry);
    per-chunk messages carry only the small iterate arrays.  Any worker
    exception, timeout, or executor breakage surfaces as
    :class:`_PoolFailure` for the engine's retry/fallback logic.
    """

    def __init__(self, engine, observations, shard_payloads):
        from multiprocessing import shared_memory

        self._engine = engine
        self._timeout = engine.config.job_timeout
        values = np.ascontiguousarray(observations.values, dtype=np.float64)
        mask = np.ascontiguousarray(observations.mask, dtype=np.bool_)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, values.nbytes + mask.nbytes)
        )
        self._shm.buf[: values.nbytes] = values.tobytes()
        self._shm.buf[values.nbytes : values.nbytes + mask.nbytes] = mask.tobytes()
        shape = (observations.n_users, observations.n_tasks)
        self._payloads = []
        for payload in shard_payloads:
            payload = dict(payload)
            payload["shm"] = self._shm.name
            payload["shape"] = shape
            self._payloads.append(payload)
        self.chunk_iterations = engine.config.chunk_iterations

    def _collect(self, function, payloads):
        pool = self._engine._ensure_pool()
        try:
            futures = [pool.submit(function, payload) for payload in payloads]
            return [future.result(timeout=self._timeout) for future in futures]
        except Exception as error:
            self._engine._kill_pool()
            raise _PoolFailure(f"shard pool failed: {error!r}") from error

    def run_chunk(self, states, start, n_iterations):
        payloads = []
        for payload, (expertise, truths) in zip(self._payloads, states):
            message = dict(payload)
            message.update(expertise=expertise, truths=truths, start=start, n_iterations=n_iterations)
            payloads.append(message)
        results = self._collect(_pool_run_chunk, payloads)
        by_shard = {shard: (history, seconds) for shard, history, seconds in results}
        return [by_shard[payload["shard"]] for payload in self._payloads]

    def final_pass(self, expertise_list):
        payloads = []
        for payload, expertise in zip(self._payloads, expertise_list):
            message = dict(payload)
            message["expertise"] = expertise
            payloads.append(message)
        results = self._collect(_pool_final_pass, payloads)
        by_shard = {shard: (truths, sigmas, seconds) for shard, truths, sigmas, seconds in results}
        return [by_shard[payload["shard"]] for payload in self._payloads]

    def close(self):
        try:
            self._shm.close()
            self._shm.unlink()
        except Exception:  # pragma: no cover — already unlinked
            pass


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


class _TraceBuffer:
    """Buffered trace/metric emission, flushed on solve success only."""

    def __init__(self):
        self.events: list = []
        self.shard_seconds: dict = {}

    def emit(self, type: str, **data) -> None:
        self.events.append((type, data))

    def observe(self, shard: int, seconds: float) -> None:
        self.shard_seconds[shard] = self.shard_seconds.get(shard, 0.0) + seconds

    def flush(self, tracer, metrics, kind: str) -> None:
        if tracer is not None and tracer.enabled:
            for type, data in self.events:
                tracer.emit(type, **data)
        if metrics is not None and self.shard_seconds:
            histogram = metrics.histogram(
                "repro_mle_shard_seconds",
                "Per-shard truth-analysis compute seconds per solve",
                buckets=SHARD_SECONDS_BUCKETS,
            )
            for shard in sorted(self.shard_seconds):
                histogram.observe(self.shard_seconds[shard], kind=kind, shard=str(shard))


class ParallelTruthEngine:
    """Domain-sharded drop-in for the serial Section 4 solvers.

    One engine owns one (lazily created) process pool; keep it alive for
    the run and :meth:`close` it when done (garbage collection closes it
    too).  Both entry points are bit-identical to their serial
    counterparts for ``robust=None`` and delegate to serial otherwise.
    """

    def __init__(self, config: "ParallelConfig | None" = None):
        self.config = config if config is not None else ParallelConfig()
        self._pool = None
        #: Solves that fell back to the serial path (observable in tests).
        self.fallbacks = 0

    # -------------------------- pool plumbing ------------------------- #

    def _use_processes(self) -> bool:
        if self.config.use_processes is not None:
            return bool(self.config.use_processes)
        return (os.cpu_count() or 1) > 1

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            from repro.reliability.supervisor import _worker_initializer

            self._pool = ProcessPoolExecutor(
                max_workers=self.config.n_shards, initializer=_worker_initializer
            )
        return self._pool

    def _kill_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover — already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __del__(self):  # pragma: no cover — GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------- estimate path -------------------------- #

    def estimate_truth(
        self,
        observations: ObservationMatrix,
        task_domains,
        initial_expertise: "np.ndarray | None" = None,
        domain_ids: "tuple | None" = None,
        max_iterations: int = 100,
        robust=None,
        tracer=None,
        metrics=None,
    ) -> TruthAnalysisResult:
        """Sharded :func:`repro.core.truth.estimate_truth` (bit-identical)."""
        if robust is not None:
            return estimate_truth(
                observations,
                task_domains,
                initial_expertise=initial_expertise,
                domain_ids=domain_ids,
                max_iterations=max_iterations,
                robust=robust,
                tracer=tracer,
            )
        task_domains = np.asarray(task_domains)
        if task_domains.shape != (observations.n_tasks,):
            raise ValueError("task_domains must have one label per task")
        if observations.observation_count == 0:
            raise ValueError("observation matrix is empty")
        if domain_ids is None:
            domain_ids = tuple(sorted(set(task_domains.tolist())))
        column_of = {domain_id: k for k, domain_id in enumerate(domain_ids)}
        try:
            domain_columns = np.array([column_of[d] for d in task_domains.tolist()], dtype=int)
        except KeyError as missing:
            raise ValueError(f"task domain {missing} not present in domain_ids") from None
        n_domains = len(domain_ids)
        n_users = observations.n_users

        if initial_expertise is None:
            expertise0 = np.full((n_users, n_domains), DEFAULT_EXPERTISE, dtype=float)
        else:
            expertise0 = clamp_expertise(np.asarray(initial_expertise, dtype=float).copy())
            if expertise0.shape != (n_users, n_domains):
                raise ValueError("initial_expertise has the wrong shape")

        task_obs_counts = observations.mask.sum(axis=0)
        shards = plan_shards(domain_columns, task_obs_counts, n_domains, self.config.n_shards)
        if len(shards) <= 1:
            return estimate_truth(
                observations,
                task_domains,
                initial_expertise=initial_expertise,
                domain_ids=domain_ids,
                max_iterations=max_iterations,
                robust=None,
                tracer=tracer,
            )

        payloads = []
        for index, shard in enumerate(shards):
            local_col = {col: j for j, col in enumerate(shard.domain_cols)}
            payloads.append(
                {
                    "kind": "estimate",
                    "shard": index,
                    "task_indices": shard.task_indices,
                    "local_domain_cols": np.array(
                        [local_col[c] for c in domain_columns[shard.task_indices]], dtype=int
                    ),
                    "n_local_domains": len(shard.domain_cols),
                }
            )
        initial_states = [
            (
                expertise0[:, np.array(shard.domain_cols, dtype=int)],
                np.full(len(shard.task_indices), np.nan),
            )
            for shard in shards
        ]

        def assemble(chosen, final, buffer, iterations, converged, final_delta):
            truths = np.full(observations.n_tasks, np.nan)
            sigmas = np.full(observations.n_tasks, SIGMA_FLOOR)
            expertise = np.empty((n_users, n_domains))
            # Domains with no tasks get the exact serial treatment: the
            # Eq. 6 pass sees zero sums for them every iteration.
            empty = expertise_from_sums(np.zeros(n_users), np.zeros(n_users))
            expertise[:] = empty[:, None]
            for index, shard in enumerate(shards):
                shard_truths, shard_sigmas, _seconds = final[index]
                truths[shard.task_indices] = shard_truths
                sigmas[shard.task_indices] = shard_sigmas
                expertise[:, np.array(shard.domain_cols, dtype=int)] = chosen[index][0]
                buffer.emit(
                    "mle.shard.done",
                    kind="estimate",
                    shard=index,
                    domains=len(shard.domain_cols),
                    tasks=int(len(shard.task_indices)),
                    observations=int(shard.n_observations),
                    iterations=iterations,
                )
            return TruthAnalysisResult(
                truths=truths,
                sigmas=sigmas,
                expertise=expertise,
                domain_ids=tuple(domain_ids),
                iterations=iterations,
                converged=converged,
                final_delta=final_delta,
                used_fallback=False,
            )

        def solve(runner, buffer):
            buffer.emit(
                "mle.shard.plan",
                kind="estimate",
                shards=len(shards),
                domains=[len(shard.domain_cols) for shard in shards],
                tasks=[int(len(shard.task_indices)) for shard in shards],
                observations=[int(shard.n_observations) for shard in shards],
            )
            states = [
                (block.copy(), truths.copy()) for block, truths in initial_states
            ]
            iteration = 0
            converged = False
            final_delta = float("nan")
            chosen = None
            while iteration < max_iterations and not converged:
                n_iterations = min(runner.chunk_iterations, max_iterations - iteration)
                results = runner.run_chunk(states, iteration + 1, n_iterations)
                for index, (history, seconds) in enumerate(results):
                    buffer.observe(index, seconds)
                    last = history[-1]
                    states[index] = (last[2], last[0])
                for step in range(n_iterations):
                    iteration += 1
                    if iteration > 1:
                        final_delta = max(history[step][4] for history, _ in results)
                        buffer.emit("mle.iteration", iteration=iteration, delta=final_delta)
                        if all(history[step][3] for history, _ in results):
                            converged = True
                            chosen = [
                                (history[step][2], history[step][0])
                                for history, _ in results
                            ]
                            break
                    else:
                        buffer.emit("mle.iteration", iteration=iteration, delta=None)
            if chosen is None:
                chosen = [(expertise, truths) for expertise, truths in states]
            if converged:
                buffer.emit("mle.converged", iterations=iteration, final_delta=final_delta)
            else:
                buffer.emit(
                    "mle.non_convergence",
                    iterations=iteration,
                    final_delta=final_delta,
                    n_tasks=observations.n_tasks,
                    n_observations=observations.observation_count,
                )
            final = runner.final_pass([expertise for expertise, _ in chosen])
            for index, (_truths, _sigmas, seconds) in enumerate(final):
                buffer.observe(index, seconds)
            return (
                assemble(chosen, final, buffer, iteration, converged, final_delta),
                converged,
            )

        def run(runner):
            buffer = _TraceBuffer()
            try:
                result, converged = solve(runner, buffer)
            finally:
                runner.close()
            buffer.flush(tracer, metrics, "estimate")
            if not converged:
                _LOG.warning(
                    "truth analysis did not converge within %d iterations "
                    "(final relative change %.4g, %d tasks, %d observations)",
                    max_iterations,
                    result.final_delta,
                    observations.n_tasks,
                    observations.observation_count,
                )
            return result

        if not self._use_processes():
            return run(_InProcessRunner(observations, payloads))
        try:
            return self._run_pooled(
                lambda: _PoolRunner(self, observations, payloads), run
            )
        except _PoolFailure as failure:
            return self._fall_back(
                failure,
                "estimate",
                tracer,
                lambda: estimate_truth(
                    observations,
                    task_domains,
                    initial_expertise=initial_expertise,
                    domain_ids=domain_ids,
                    max_iterations=max_iterations,
                    robust=None,
                    tracer=tracer,
                ),
            )

    # ------------------------ incorporate path ------------------------ #

    def incorporate(
        self,
        updater,
        observations: ObservationMatrix,
        task_domains,
        max_iterations: int = 100,
        commit: bool = True,
        robust=None,
        tracer=None,
        metrics=None,
    ) -> IncorporateResult:
        """Sharded :meth:`ExpertiseUpdater.incorporate` (bit-identical)."""
        if robust is not None:
            return updater.incorporate(
                observations,
                task_domains,
                max_iterations=max_iterations,
                commit=commit,
                robust=robust,
                tracer=tracer,
            )
        task_domains = np.asarray(task_domains)
        if task_domains.shape != (observations.n_tasks,):
            raise ValueError("task_domains must have one label per task")
        if observations.n_users != updater.n_users:
            raise ValueError("observation matrix has the wrong number of users")

        distinct = sorted(set(task_domains.tolist()))
        domain_columns = np.array(
            [distinct.index(d) for d in task_domains.tolist()], dtype=int
        )
        task_obs_counts = observations.mask.sum(axis=0)
        shards = plan_shards(domain_columns, task_obs_counts, len(distinct), self.config.n_shards)
        if len(shards) <= 1:
            return updater.incorporate(
                observations,
                task_domains,
                max_iterations=max_iterations,
                commit=commit,
                robust=None,
                tracer=tracer,
            )

        for domain_id in distinct:
            updater.ensure_domain(domain_id)
        base_n, base_d = updater.decayed_base(distinct)
        expertise_start = {d: updater.expertise_column(d) for d in distinct}

        payloads = []
        for index, shard in enumerate(shards):
            shard_domains = tuple(distinct[c] for c in shard.domain_cols)
            payloads.append(
                {
                    "kind": "update",
                    "shard": index,
                    "task_indices": shard.task_indices,
                    "task_domains": task_domains[shard.task_indices],
                    "domains": shard_domains,
                    "base_n": np.column_stack([base_n[d] for d in shard_domains]),
                    "base_d": np.column_stack([base_d[d] for d in shard_domains]),
                }
            )
        initial_states = [
            (
                np.column_stack([expertise_start[d] for d in payload["domains"]]),
                np.full(len(shard.task_indices), np.nan),
            )
            for payload, shard in zip(payloads, shards)
        ]

        def solve(runner, buffer):
            buffer.emit(
                "mle.shard.plan",
                kind="update",
                shards=len(shards),
                domains=[len(shard.domain_cols) for shard in shards],
                tasks=[int(len(shard.task_indices)) for shard in shards],
                observations=[int(shard.n_observations) for shard in shards],
            )
            states = [(block.copy(), truths.copy()) for block, truths in initial_states]
            iteration = 0
            converged = False
            final_delta = float("nan")
            chosen = None
            while iteration < max_iterations and not converged:
                n_iterations = min(runner.chunk_iterations, max_iterations - iteration)
                results = runner.run_chunk(states, iteration + 1, n_iterations)
                for index, (history, seconds) in enumerate(results):
                    buffer.observe(index, seconds)
                    last = history[-1]
                    states[index] = (last[2], last[0])
                for step in range(n_iterations):
                    iteration += 1
                    if iteration > 1:
                        final_delta = max(history[step][6] for history, _ in results)
                        buffer.emit("mle.iteration", iteration=iteration, delta=final_delta)
                        if all(history[step][5] for history, _ in results):
                            converged = True
                            chosen = [history[step] for history, _ in results]
                            break
                    else:
                        buffer.emit("mle.iteration", iteration=iteration, delta=None)
            if chosen is None:
                chosen = [history[-1] for history, _ in results]
            if converged:
                buffer.emit("mle.converged", iterations=iteration, final_delta=final_delta)
            elif commit:
                buffer.emit(
                    "mle.non_convergence",
                    iterations=iteration,
                    final_delta=final_delta,
                    n_tasks=observations.n_tasks,
                    n_observations=observations.observation_count,
                )

            truths = np.full(observations.n_tasks, np.nan)
            sigmas = np.full(observations.n_tasks, np.nan)
            new_n = {}
            new_d = {}
            expertise_final = {}
            for index, (shard, payload) in enumerate(zip(shards, payloads)):
                entry = chosen[index]
                truths[shard.task_indices] = entry[0]
                sigmas[shard.task_indices] = entry[1]
                for j, d in enumerate(payload["domains"]):
                    expertise_final[d] = entry[2][:, j].copy()
                    new_n[d] = entry[3][:, j].copy()
                    new_d[d] = entry[4][:, j].copy()
                buffer.emit(
                    "mle.shard.done",
                    kind="update",
                    shard=index,
                    domains=len(shard.domain_cols),
                    tasks=int(len(shard.task_indices)),
                    observations=int(shard.n_observations),
                    iterations=iteration,
                )
            result = IncorporateResult(
                truths=truths,
                sigmas=sigmas,
                iterations=iteration,
                converged=converged,
                expertise={d: expertise_final[d].copy() for d in distinct},
                final_delta=final_delta,
                used_fallback=False,
            )
            return result, (new_n, new_d), converged

        def run(runner):
            buffer = _TraceBuffer()
            try:
                result, sums, converged = solve(runner, buffer)
            finally:
                runner.close()
            buffer.flush(tracer, metrics, "update")
            if not converged and commit:
                _LOG.warning(
                    "expertise update did not converge within %d iterations "
                    "(final relative change %.4g, %d tasks, %d observations); "
                    "committing the %s",
                    max_iterations,
                    result.final_delta,
                    observations.n_tasks,
                    observations.observation_count,
                    "last iterate",
                )
            if commit:
                updater.commit_sums(*sums)
            return result

        if not self._use_processes():
            return run(_InProcessRunner(observations, payloads))
        try:
            return self._run_pooled(
                lambda: _PoolRunner(self, observations, payloads), run
            )
        except _PoolFailure as failure:
            return self._fall_back(
                failure,
                "update",
                tracer,
                lambda: updater.incorporate(
                    observations,
                    task_domains,
                    max_iterations=max_iterations,
                    commit=commit,
                    robust=None,
                    tracer=tracer,
                ),
            )

    # ------------------------ failure handling ------------------------ #

    def _run_pooled(self, make_runner, run):
        retry = self.config.retry if self.config.retry is not None else RetryPolicy(max_attempts=2)
        last_failure = None
        for attempt in range(1, retry.max_attempts + 1):
            try:
                return run(make_runner())
            except _PoolFailure as failure:
                last_failure = failure
                _LOG.warning(
                    "parallel truth analysis pool attempt %d/%d failed: %s",
                    attempt,
                    retry.max_attempts,
                    failure,
                )
                if attempt < retry.max_attempts:
                    time.sleep(retry.delay(attempt))
        raise last_failure

    def _fall_back(self, failure, kind, tracer, serial):
        self.fallbacks += 1
        if tracer is not None and tracer.enabled:
            tracer.emit("mle.shard.fallback", kind=kind, error=str(failure))
        _LOG.warning(
            "parallel truth analysis (%s) fell back to the serial solver: %s",
            kind,
            failure,
        )
        return serial()
