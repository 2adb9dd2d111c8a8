"""Deterministic chunked Monte Carlo estimation of ensemble averages, tail
frequencies and the dimension sweep of the average mixed-state coherence.

Chunk c always draws from stream index c of the master seed, and per-chunk
statistics merge in ascending chunk order, so every estimate is bit-identical
regardless of how many worker threads, or groups of chunks, execute them.
"""

import contextlib
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .coherence import _shannon, _skew, relative_entropy_coherence, skew_coherence
from .linalg import _require_dim
from .sampling import RngStream, _hs_mixed_slices, haar_populations_batch

DEFAULT_CHUNK_SIZE = 1024
ENSEMBLES = ("pure", "mixed")  # the state ensembles, told apart in _coherence_task alone

# Draws per stream and call of every draw block that _block_stats folds, the engine's and
# the oracles'; fixed so the stream consumption order (hence the result) never depends on memory.
_BLOCK_DRAWS = 1 << 21

# Draws of a group of chunks that run_chunked hands a task with group_entries: 8 pure chunks
# of 1024 states at N = 2 (4 mixed), one at N = 29. No bit depends on it. The pure task's
# reused draw buffer keeps larger groups from re-faulting temporaries (glibc did from 2^15).
_GROUP_DRAWS = 1 << 14

# Peak bytes of one draw block per complex entry drawn. One full 2^21-entry block over a
# warmed-up process (ru_maxrss, N = 2-32): 16-20 B for pure states (populations only),
# 2-5 B for mixed ones (one slice and the per-state values). 96 B covers both with room.
_BYTES_PER_ENTRY = 96

# Largest estimated working set of the draw blocks in flight at once; above it mc, tail
# and sample refuse before drawing instead of failing with MemoryError. A quarter of an
# 8 GB host: mixed N <= 4729 or pure N <= 22 M (one state per block), on one thread.
MAX_BLOCK_BYTES = 2 << 30


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class TailEstimate:
    frequency: float
    bound: float
    n_samples: int
    center: float


@dataclass(frozen=True)
class SweepRow:
    n: int
    analytic: float
    mc_mean: float
    mc_stderr: float


def stats_of(values: np.ndarray) -> list:
    """(count, mean, sum of squared deviations) of each row of a 2-D sample
    block, which it overwrites with the squared deviations. numpy reduces a contiguous
    row as it does a 1-D array, so a row's statistics do not depend on the rows beside it."""
    means = values.mean(axis=1)
    m2 = np.square(np.subtract(values, means[:, None], out=values), out=values).sum(axis=1)
    return [(values.shape[1], float(mean), float(dev)) for mean, dev in zip(means, m2)]


def merge_stats(a, b):
    """Pairwise combination of two (count, mean, M2) partials."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    if na == 0:  # b itself: mean_b nb / nb may round away from mean_b
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def _block_sizes(total: int, block: int) -> list:
    """Full blocks of `block` items, then a short last one. Every blocked loop
    splits here; the split fixes where each RNG call cuts the stream."""
    full, rest = divmod(total, block)
    return [block] * full + [rest] * (rest > 0)


def _block_stats(draw, count: int, block: int) -> list:
    """stats_of `count` columns of draw(b) -> (rows, b), b <= block, merged in stream order."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    return functools.reduce(lambda stats, more: list(map(merge_stats, stats, more)),
                            (stats_of(draw(b)) for b in _block_sizes(count, block)))


def _finish(partials) -> EstimatorResult:
    """Estimate from (count, mean, M2) partials merged in the order given."""
    n, mean, m2 = functools.reduce(merge_stats, partials, (0, 0.0, 0.0))
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return EstimatorResult(mean=mean, stderr=stderr, n_samples=n)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS behind numpy.linalg.

    Looked up through numpy's linalg extension, whose dependencies include the
    BLAS it was linked against; None for any other BLAS build.
    """
    import ctypes

    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    # numpy 2 wheels (64-bit indices), 32-bit-index wheels, numpy 1.x wheels,
    # and a system OpenBLAS
    for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The OpenBLAS thread count is process-wide, so concurrent pools share one
# pin: the first to enter saves the count, the last to leave restores it.
_pin_lock = threading.Lock()
_pin_users = 0
_pin_saved = None


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the block with OpenBLAS on one thread, then restore its count.

    Pool workers already use the cores; BLAS threads of their own would
    oversubscribe them (a batched eigh at N = 32 ran 3x slower per matrix).
    """
    global _pin_users, _pin_saved
    handle = _openblas_threads()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _pin_lock:
        if _pin_users == 0:
            _pin_saved = get()
            set_(1)
        _pin_users += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_users -= 1
            if _pin_users == 0:
                set_(_pin_saved)


def _block_states(entries: int) -> int:
    """States per draw block of a task drawing `entries` per state: at least one."""
    return max(1, _BLOCK_DRAWS // entries)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _schedule(total_samples: int, chunk_size: int, entries: int, threads: int,
              lower: str = "dimension, chunk size or thread count"):
    """(jobs, block, workers) of run_chunked for a task drawing `entries` per state (0: no
    group_entries): a job (first chunk, chunks, states per chunk), made as it is taken, is a
    group of chunk streams drawn at most `block` states per call, on `workers` threads, the
    least of `threads`, the groups and the usable CPUs. Refuses before any draw, naming
    `lower`, runs whose blocks in flight (the first group's on each worker) pass MAX_BLOCK_BYTES."""
    if total_samples < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    full, rest = divmod(total_samples, chunk_size)
    per_group = max(1, _GROUP_DRAWS // (chunk_size * entries)) if entries else 1
    jobs = itertools.chain(((first, min(per_group, full - first), chunk_size)
                            for first in range(0, full, per_group)),
                           [(full, 1, rest)] * (rest > 0))
    block = _block_states(entries) if entries else chunk_size
    length, count = (min(per_group, full), chunk_size) if full else (1, rest)
    workers = min(threads, -(-full // per_group) + (rest > 0), _usable_cpus())
    needed = length * min(count, block) * entries * _BYTES_PER_ENTRY * workers
    if needed > MAX_BLOCK_BYTES:
        raise ValueError(f"draw blocks of {entries} entries per state need about "
                         f"{needed / 2**30:.3g} GiB, above the {MAX_BLOCK_BYTES / 2**30:g} GiB "
                         f"limit; use a smaller {lower}")
    return jobs, block, workers


def run_chunked(task, total_samples: int, chunk_size: int = DEFAULT_CHUNK_SIZE,
                master_seed: int = 0, threads: int = 1) -> EstimatorResult:
    """Evaluate ``task(streams, count) -> (len(streams), count) values`` over
    deterministic chunks.

    Chunk c owns RngStream(master_seed, c); a short final chunk takes the remainder. A call
    gets one chunk's stream or, if the task has `group_entries` (draws per state), those of
    the consecutive full chunks that fit in _GROUP_DRAWS, at most _BLOCK_DRAWS entries (one
    state or more) of each. Block statistics merge in stream order, chunks' in chunk order,
    so threads and groups change only wall time. `threads` is an upper bound: the pool never
    outgrows the groups or the usable CPUs. While the pool runs, OpenBLAS runs one thread.
    """
    jobs, block, workers = _schedule(total_samples, chunk_size,
                                     getattr(task, "group_entries", 0), threads)
    worker = threading.local()  # each pool thread keeps its own streams

    def one_group(job):
        first, length, count = job
        streams = worker.__dict__.setdefault("streams", [])
        streams += [RngStream(master_seed) for _ in range(length - len(streams))]
        for index, stream in enumerate(streams[:length], first):
            stream._rekey(master_seed, index)
        return _block_stats(functools.partial(task, streams[:length]), count, block)

    def in_order(pool):  # at most 2·workers groups submitted ahead of the one being merged
        pending = [pool.submit(one_group, job) for job in itertools.islice(jobs, 2 * workers)]
        for job in jobs:
            pending.append(pool.submit(one_group, job))
            yield pending.pop(0).result()
        yield from (future.result() for future in pending)

    # the statistics fold as the groups finish, so they are never all held at once
    if workers > 1:
        with _single_threaded_blas(), ThreadPoolExecutor(max_workers=workers) as pool:
            return _finish(stats for group in in_order(pool) for stats in group)
    return _finish(stats for job in jobs for stats in one_group(job))


def _values(slices, kernel):
    """task(streams, count) -> (len(streams), count): kernel(states) of each slice that
    slices(streams, count) yields, written in stream order into one array."""
    def task(streams, count):
        values, at = np.empty(len(streams) * count), 0
        for states in slices(streams, count):
            values[at:at + len(states)] = kernel(states)
            at += len(states)
        return values.reshape(len(streams), count)
    return task


def _coherence_task(ensemble: str, n: int, measure: str, then=None):
    """task(streams, count) -> (len(streams), count): the measure on `count` states of the ensemble
    from each stream, mapped elementwise by `then` if given; the one place that tells ensembles
    apart. Pure: the pure-state kernels work row by row, so one slice of Haar populations covers
    all streams, drawn into a buffer per worker. Mixed: skew_coherence or relative_entropy_coherence
    on _hs_mixed_slices of all streams, one buffer a call. A kernel raises on an invalid state.
    The task carries `group_entries` (N or N² draws per state, for run_chunked), mean(n), bound."""
    if measure not in ("skew", "rel-ent"):
        raise ValueError(f"unknown measure {measure!r}; expected 'skew' or 'rel-ent'")
    if ensemble == "pure":
        kernel = _skew if measure == "skew" else _shannon
        entries, mean, bound = n, closed_forms.avg_coherence_pure, closed_forms.tail_bound_pure
        worker = threading.local()  # a draw buffer per pool thread

        def slices(streams, count):
            if getattr(worker, "buffer", np.empty(0)).size < len(streams) * count * n:
                worker.buffer = np.empty(len(streams) * count * n)
            yield haar_populations_batch(streams, n, count, worker.buffer)
    elif ensemble == "mixed":
        kernel = skew_coherence if measure == "skew" else relative_entropy_coherence
        entries, mean, bound = n**2, closed_forms.avg_coherence_mixed, closed_forms.tail_bound_mixed

        def slices(streams, count):
            return _hs_mixed_slices(streams, n, count)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}; expected 'pure' or 'mixed'")
    task = _values(slices, kernel if then is None else lambda states: then(kernel(states)))
    task.group_entries, task.mean, task.bound = entries, mean, bound
    return task


def estimate_average(ensemble: str, n: int, samples: int, seed: int,
                     measure: str = "skew", chunk_size: int = DEFAULT_CHUNK_SIZE,
                     threads: int = 1) -> EstimatorResult:
    """Chunked Monte Carlo mean of a coherence measure over a state ensemble."""
    _require_dim(n)
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    return run_chunked(_coherence_task(ensemble, n, measure), samples, chunk_size, seed, threads)


def estimate_tail(ensemble: str, n: int, epsilon: float, samples: int, seed: int,
                  chunk_size: int = DEFAULT_CHUNK_SIZE, threads: int = 1) -> TailEstimate:
    """Empirical frequency of |C - analytic mean| > epsilon with its bound.

    Deviations are measured from the analytic ensemble average (the quantity
    the concentration statements are about), not the empirical mean.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    task = _coherence_task(ensemble, n, "skew", lambda c: (abs(c - center) > epsilon).astype(float))
    _schedule(samples, chunk_size, task.group_entries, threads)  # refuse before the center
    center, bound = task.mean(n), task.bound(n, epsilon)
    result = run_chunked(task, samples, chunk_size, seed, threads)
    return TailEstimate(frequency=result.mean, bound=bound, n_samples=result.n_samples,
                        center=center)


def figure1_sweep(max_exp: int, samples: int, seed: int,
                  chunk_size: int = DEFAULT_CHUNK_SIZE, threads: int = 1):
    """Analytic vs Monte Carlo average mixed-state coherence for n = 2^m.

    One row per m = 1..max_exp. The analytic column comes from the gated
    moment bracket, so a prefix-sum/quadrature disagreement aborts the sweep.
    """
    if max_exp < 1:
        raise ValueError(f"max_exp must be >= 1, got {max_exp}")
    # 2^m <= cap exactly when m <= floor(log2 cap); never forms 2^max_exp.
    if max_exp > closed_forms.MAX_TABLE_SIZE.bit_length() - 1:
        raise ValueError(f"N = 2^{max_exp} exceeds the largest moment table, "
                         f"{closed_forms.MAX_TABLE_SIZE}")
    rows = []
    for m in range(1, max_exp + 1):
        n = 2**m
        analytic = closed_forms.avg_coherence_mixed(n)
        est = estimate_average("mixed", n, samples, seed, "skew", chunk_size, threads)
        rows.append(SweepRow(n=n, analytic=analytic, mc_mean=est.mean, mc_stderr=est.stderr))
    return rows
