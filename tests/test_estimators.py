import argparse
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import xlogy

from haar_coherence import closed_forms as cf
from haar_coherence import cli, estimators, sampling
from haar_coherence.coherence import (relative_entropy_coherence,
                                      skew_coherence)
from haar_coherence.estimators import (_coherence_task, estimate_average,
                                       estimate_tail, figure1_sweep,
                                       run_chunked)
from haar_coherence.sampling import RngStream, haar_pure_batch, hs_mixed_batch


def counting_task(streams, count):
    return np.stack([rng.uniform(count) for rng in streams])


def test_run_chunked_respects_total():
    result = run_chunked(counting_task, 1000, chunk_size=300, master_seed=5)
    assert result.n_samples == 1000


def test_run_chunked_single_chunk_equals_stream_zero():
    result = run_chunked(counting_task, 500, chunk_size=500, master_seed=9)
    direct = RngStream(9, 0).uniform(500)
    assert result.mean == direct.mean()


def test_run_chunked_worker_count_invariance(many_cpus):
    kwargs = dict(total_samples=5000, chunk_size=256, master_seed=11)
    serial = run_chunked(counting_task, **kwargs, threads=1)
    threaded = run_chunked(counting_task, **kwargs, threads=8)
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr


def test_pool_never_outgrows_the_usable_cpus(monkeypatch):
    # 64 one-chunk groups asked onto 64 threads with 2 usable CPUs: the schedule
    # (and with it the memory guard) counts two workers, and the pool runs on at
    # most two threads with the bytes of one thread
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
    workers = set()

    def task(streams, count):
        workers.add(threading.get_ident())
        return counting_task(streams, count)

    assert estimators._schedule(6400, 100, 0, 64)[2] == 2
    pooled = run_chunked(task, 6400, chunk_size=100, master_seed=3, threads=64)
    assert len(workers) <= 2
    assert pooled == run_chunked(counting_task, 6400, chunk_size=100, master_seed=3)


def test_run_chunked_reproducible():
    a = run_chunked(counting_task, 3000, chunk_size=128, master_seed=21)
    b = run_chunked(counting_task, 3000, chunk_size=128, master_seed=21)
    assert a == b


@pytest.mark.parametrize("count", [1, 7, 700, 1024, 8193, 100_003])
def test_row_stats_are_those_of_each_row(count):
    block = RngStream(3, count).exponential(5 * count).reshape(5, count) ** 3
    for row, (n, mean, m2) in zip(block, estimators.stats_of(block.copy())):
        assert (n, mean, m2) == (count, float(row.mean()), float(((row - row.mean()) ** 2).sum()))


def test_run_chunked_hands_groups_of_chunk_streams(monkeypatch):
    # 10 full chunks of 100 in groups of 3, 3, 3 and 1, the short one alone;
    # each stream is the chunk's own, at its start
    calls = []

    def task(streams, count):
        calls.append((len(streams), count))
        return counting_task(streams, count)

    task.group_entries = 1
    monkeypatch.setattr(estimators, "_GROUP_DRAWS", 3 * 100)
    for threads in (1, 2):
        calls.clear()
        result = run_chunked(task, 1050, chunk_size=100, master_seed=5, threads=threads)
        assert sorted(calls) == sorted([(3, 100)] * 3 + [(1, 100), (1, 50)])
        assert result == estimators._finish(
            estimators.stats_of(RngStream(5, c).uniform(size)[None])[0]
            for c, size in enumerate([100] * 10 + [50]))


def test_schedule_makes_its_jobs_as_they_are_taken():
    # one-state chunks: the guard needs only the first group and the group
    # count, so nothing is built before the first draw. 10^10 first, whose
    # job list would take about 70 MB, so that a list-building schedule fails
    # there instead of asking for the 7 GB of 10^12
    for samples in (10**10, 10**12):
        tracemalloc.start()
        try:
            jobs, block, _ = estimators._schedule(samples, 1, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert next(jobs) == (0, estimators._GROUP_DRAWS, 1) and block == estimators._BLOCK_DRAWS
    assert list(estimators._schedule(1050, 100, 0, 1)[0]) == [
        (c, 1, 100) for c in range(10)] + [(10, 1, 50)]
    assert list(estimators._schedule(50, 100, 1, 1)[0]) == [(0, 1, 50)]


@pytest.mark.parametrize("threads", [2, 3])
def test_pool_keeps_a_bounded_window_of_groups(monkeypatch, many_cpus, threads):
    # 200 one-chunk groups: at most 2·threads submitted ahead of the group
    # being merged, and the same bytes as one thread
    outstanding, most = set(), []

    class Recording(estimators.ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            result = future.result

            def taken(*timeout):
                outstanding.discard(future)
                return result(*timeout)

            future.result = taken
            outstanding.add(future)
            most.append(len(outstanding))
            return future

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Recording)
    pooled = run_chunked(counting_task, 20_000, chunk_size=100, master_seed=4, threads=threads)
    assert len(most) == 200 and max(most) == 2 * threads + 1
    assert pooled == run_chunked(counting_task, 20_000, chunk_size=100, master_seed=4)


@pytest.mark.parametrize("ensemble, n", [("pure", 2), ("pure", 7), ("pure", 8), ("pure", 29),
                                         ("mixed", 2), ("mixed", 3)],
                         ids=["2", "7", "8", "29", "mixed-2", "mixed-3"])
def test_group_size_never_changes_a_bit(monkeypatch, ensemble, n):
    # 13 full chunks of 300 and a short one of 100, in groups of 1, 3 and
    # every chunk; at the default, pure N = 2 takes all 13, N = 7 groups of 7,
    # N = 8 groups of 6 and N = 29 one chunk per group, mixed N = 2 all 13 and
    # N = 3 groups of 6
    def runs():
        return [estimate_average(ensemble, n, 4000, seed=8, measure=measure, chunk_size=300)
                for measure in ("skew", "rel-ent")] + [
            estimate_tail(ensemble, n, 0.01, 4000, seed=8, chunk_size=300, threads=threads)
            for threads in (1, 2)]

    default = runs()
    assert 0.0 < default[2].frequency < 1.0
    entries = n if ensemble == "pure" else n * n
    for chunks in (1, 3, 14):
        monkeypatch.setattr(estimators, "_GROUP_DRAWS", chunks * 300 * entries)
        assert runs() == default


@pytest.fixture
def openblas():
    handle = estimators._openblas_threads()
    if handle is None:
        pytest.skip("numpy.linalg is not linked against OpenBLAS: nothing to pin")
    get, set_ = handle
    before = get()
    set_(2)  # a count the pin must visibly change and restore
    yield get
    set_(before)


def test_pool_workers_see_one_blas_thread(openblas, many_cpus):
    seen = []

    def task(streams, count):
        seen.append(openblas())
        return counting_task(streams, count)

    run_chunked(task, 2000, chunk_size=250, threads=2)
    assert seen == [1] * 8
    assert openblas() == 2


def test_blas_threads_restored_when_a_task_raises(openblas, many_cpus):
    def task(streams, count):
        raise RuntimeError("task failed")

    with pytest.raises(RuntimeError, match="task failed"):
        run_chunked(task, 1000, chunk_size=250, threads=2)
    assert openblas() == 2


def test_overlapping_pools_share_one_pin(openblas, many_cpus):
    # pool A ends while pool B still runs: B must stay pinned, and the count
    # must come back only when B ends too
    a_started, b_started, a_done = (threading.Event() for _ in range(3))
    seen_by_b = []

    def task_a(streams, count):
        a_started.set()
        assert b_started.wait(10)
        return counting_task(streams, count)

    def task_b(streams, count):
        b_started.set()
        assert a_done.wait(10)
        seen_by_b.append(openblas())
        return counting_task(streams, count)

    def run_a():
        run_chunked(task_a, 20, chunk_size=10, threads=2)  # two groups: a pool
        a_done.set()

    a = threading.Thread(target=run_a)
    b = threading.Thread(target=run_chunked, args=(task_b, 20),
                         kwargs=dict(chunk_size=10, threads=2))
    a.start()
    assert a_started.wait(10)
    b.start()
    a.join(10)
    b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert seen_by_b == [1, 1]
    assert openblas() == 2


def test_serial_path_leaves_blas_threads_alone(openblas):
    seen = []

    def task(streams, count):
        seen.append(openblas())
        return counting_task(streams, count)

    run_chunked(task, 500, chunk_size=250, threads=1)
    assert seen == [2, 2]


def test_estimate_average_validates_arguments():
    with pytest.raises(ValueError):
        estimate_average("pure", 2, 1, 0)
    with pytest.raises(ValueError):
        estimate_average("thermal", 2, 100, 0)
    with pytest.raises(ValueError):
        estimate_average("pure", 2, 100, 0, measure="l1")
    with pytest.raises(ValueError):
        estimate_average("pure", 2, 100, 0, measure="relative-entropy")


def test_estimate_average_pure_matches_theory():
    est = estimate_average("pure", 2, 10**5, seed=7)
    assert abs(est.mean - 1.0 / 3.0) < 4 * est.stderr
    assert 1e-4 < est.stderr < 2e-3


def test_mixed_task_matches_public_measures():
    # the batched estimator path must reproduce the per-state functions
    for n in (2, 3, 5):
        states = hs_mixed_batch(RngStream(301, n), n, 40)
        skew_batch = _coherence_task("mixed", n, "skew")
        rel_batch = _coherence_task("mixed", n, "rel-ent")
        # replay the same stream so the tasks see identical states
        skew_values = skew_batch([RngStream(301, n)], 40)[0]
        rel_values = rel_batch([RngStream(301, n)], 40)[0]
        for i, rho in enumerate(states):
            assert abs(skew_values[i] - skew_coherence(rho)) < 1e-12
            assert abs(rel_values[i] - relative_entropy_coherence(rho)) < 1e-10


def check_memory(ensemble, n, samples, chunk_size, threads):
    """The engine's guard on the schedule of the ensemble's coherence task."""
    entries = _coherence_task(ensemble, n, "skew").group_entries
    estimators._schedule(samples, chunk_size, entries, threads)


def test_block_memory_limit_counts_blocks_in_flight(monkeypatch, many_cpus):
    # a one-state block of 22,369,621 pure entries sits just under the 2 GiB
    # estimate; one more entry, or two such blocks drawn at once, do not
    check = check_memory
    check("pure", 22_369_621, 2, 1, threads=1)
    check("pure", 22_369_621, 4, 1, threads=1)
    check("pure", 22_369_621, 2, 2, threads=2)  # one chunk: one worker busy
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 22_369_622, 2, 1, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 11_184_811, 2, 1, threads=2)
    check("pure", 11_184_810, 2, 1, threads=2)
    # the mixed task blocks its draws too, so only N sets its size
    check("mixed", 4729, 10**6, 10**6, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("mixed", 4730, 2, 1, threads=1)
    # one usable CPU: one worker, so one block in flight whatever --threads asks
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 1)
    check("pure", 11_184_811, 2, 1, threads=2)


def test_block_memory_counts_a_group_of_pure_chunks(monkeypatch, many_cpus):
    # at N = 2, 8 pure chunks of 1024 states, or 4 mixed ones, draw one group
    # of 2^14 entries at once
    group = estimators._GROUP_DRAWS * estimators._BYTES_PER_ENTRY
    check = check_memory
    monkeypatch.setattr(estimators, "MAX_BLOCK_BYTES", group)
    check("pure", 2, 8 * 1024, 1024, threads=1)
    check("pure", 2, 10**6, 1024, threads=1)
    check("mixed", 2, 10**6, 1024, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 2, 10**6, 1024, threads=2)
    monkeypatch.setattr(estimators, "MAX_BLOCK_BYTES", group - 1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 2, 8 * 1024, 1024, threads=1)
    check("pure", 2, 7 * 1024, 1024, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("mixed", 2, 4 * 1024, 1024, threads=1)
    check("mixed", 2, 3 * 1024, 1024, threads=1)


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_group_working_set_is_within_its_estimate(measure):
    task = _coherence_task("pure", 2, measure)
    _, chunks, _ = next(estimators._schedule(10**6, 1024, 2, threads=1)[0])  # the first group
    streams = [RngStream(5, k) for k in range(chunks)]
    task(streams, 1024)  # warm-up: the first call makes the worker's draw buffer
    tracemalloc.start()
    try:
        task(streams, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimators._GROUP_DRAWS * estimators._BYTES_PER_ENTRY


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_mixed_task_holds_one_slice(measure):
    # a 1024-state block holds one slice of 2^14 entries with its temporaries (1.15 MiB
    # measured at N = 8, 32 and 46); slices of 2^16 entries peaked at 3.6-3.8 MiB, holding
    # the radii too at 11 MiB (N = 32), and drawn and reduced whole at 41 MiB
    for n in (8, 32, 46):
        task = _coherence_task("mixed", n, measure)
        task([RngStream(5, 0)], 2)  # warm-up, so that only the traced call is measured
        tracemalloc.start()
        try:
            task([RngStream(5, 0)], 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, n


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_grouped_mixed_call_holds_one_sampler_buffer(measure):
    # 4096 states at N = 2 are one call over 4 streams of 1024 states, drawn into one 64 KiB
    # buffer: 290 KiB traced; a sampler per stream held two at the stream change (354 KiB)
    estimate_average("mixed", 2, 4096, 7, measure=measure)  # warm-up
    tracemalloc.start()
    try:
        estimate_average("mixed", 2, 4096, 7, measure=measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 2**10


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_mixed_mc_bytes_do_not_depend_on_the_slice(monkeypatch, n):
    # 1, 7, 1000 and 8192 states per slice, or slices longer than a draw block: the
    # same bytes at every N. Up to N = 3 the chunk is one slice by default, long
    # enough that numpy's complex multiply rounded it otherwise than short slices.
    # The slice is set by _UNIFORM_SLICE up to N = 3 and by _MATMUL_SLICE above
    samples, chunk = {2: (8200, 8200), 3: (2000, 2000)}.get(n, (1500, 700))
    constant = "_UNIFORM_SLICE" if n <= sampling._ELEMENTWISE_GRAM_MAX_DIM else "_MATMUL_SLICE"

    def run():
        return [estimate_average("mixed", n, samples, seed=2, measure=measure, chunk_size=chunk)
                for measure in ("skew", "rel-ent")]

    expected = run()
    for slice_draws in [states * n * n for states in (1, 7, 1000, 8192)] + [
            2 * estimators._BLOCK_DRAWS]:
        monkeypatch.setattr(sampling, constant, slice_draws)
        states = len(next(sampling._hs_mixed_slices([RngStream(0)], n, 1001)))
        assert states == min(1001, slice_draws // (n * n))
        assert run() == expected


def test_pure_block_estimate_stops_growing_at_block_draws(monkeypatch, many_cpus):
    # with the limit at one full block (2^21 entries) any chunk is admitted:
    # the estimate counts at most one block of states per chunk in flight
    full_block = estimators._BLOCK_DRAWS * estimators._BYTES_PER_ENTRY
    check = check_memory
    monkeypatch.setattr(estimators, "MAX_BLOCK_BYTES", full_block)
    for chunk in (1, 2**20, 2**20 + 1, 2**30):
        check("pure", 2, chunk, chunk, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 2, 2**21, 2**20, threads=2)
    monkeypatch.setattr(estimators, "MAX_BLOCK_BYTES", full_block - 1)
    check("pure", 2, 2**20 - 1, 2**20 - 1, threads=1)
    with pytest.raises(ValueError, match="GiB limit"):
        check("pure", 2, 2**30, 2**30, threads=1)


def test_chunk_of_many_blocks_holds_one_block_at_a_time(monkeypatch):
    # a pure chunk of 16 blocks of 2^14 states at N = 2 needs at most about two
    # blocks' values more than a chunk of one block; holding every block's
    # values for one statistics call took some 45 more (6.3 MB against 0.4)
    monkeypatch.setattr(estimators, "_BLOCK_DRAWS", 2**15)
    block = 2**14

    def peak(chunk):
        task = _coherence_task("pure", 2, "skew")
        run_chunked(task, chunk, chunk, 6)  # the task's draw buffer, allocated once
        tracemalloc.start()
        try:
            run_chunked(task, chunk, chunk, 6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * block) <= peak(block) + 2 * block * 8


def _pure_values(p, measure):
    if measure == "skew":
        return 1.0 - (p * p).sum(axis=1)
    return -xlogy(p, p).sum(axis=1)


def _unblocked_pure(rng, n, count, measure):
    """The pure task as one draw of the whole chunk, phase block drawn and dropped."""
    e = rng.exponential(count * n).reshape(count, n)
    rng.uniform(count * n)
    return _pure_values(e / e.sum(axis=1, keepdims=True), measure)


@pytest.mark.parametrize("n", [1, 2, 3, 29])
@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_pure_task_matches_haar_pure_batch(n, measure):
    # populations from the radius block alone: the states' |psi_k|^2 up to
    # round-off, and the stream left where haar_pure_batch leaves it
    task_rng, batch_rng = RngStream(41, n), RngStream(41, n)
    values = estimators._coherence_task("pure", n, measure)([task_rng], 997)[0]
    p = np.abs(haar_pure_batch(batch_rng, n, 997)) ** 2
    np.testing.assert_allclose(values, _pure_values(p, measure), rtol=0, atol=1e-14)
    assert np.array_equal(task_rng.uniform(5), batch_rng.uniform(5))


def _calls_of(task, samples, chunk_size, seed):
    """The values of each call run_chunked makes of `task`, in order."""
    calls = []

    def recording(streams, count):  # a copy, as the block statistics overwrite their input
        calls.append(task(streams, count))
        return calls[-1].copy()

    recording.group_entries = task.group_entries
    run_chunked(recording, samples, chunk_size, seed)
    return calls


@pytest.mark.parametrize("n,count", [(2, 2**20), (3, 2**21 // 3), (1000, 2097)])
def test_pure_task_is_one_draw_up_to_block_draws(n, count):
    # chunk x N <= 2^21: one block, the same bytes as drawing the chunk at once
    calls = _calls_of(_coherence_task("pure", n, "skew"), count, count, seed=43)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], _unblocked_pure(RngStream(43, 0), n, count, "skew"))


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_pure_task_draws_blocks_in_order(monkeypatch, measure):
    # blocks of 12 states at N = 5: 12 + 12 + 6, each drawn as a whole chunk
    monkeypatch.setattr(estimators, "_BLOCK_DRAWS", 64)
    calls = _calls_of(_coherence_task("pure", 5, measure), 30, 30, seed=47)
    loop_rng = RngStream(47, 0)
    expected = [_unblocked_pure(loop_rng, 5, b, measure) for b in (12, 12, 6)]
    assert [call.shape for call in calls] == [(1, 12), (1, 12), (1, 6)]
    assert np.array_equal(np.concatenate(calls, axis=1)[0], np.concatenate(expected))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_mixed_estimate_draws_blocks_in_order(monkeypatch, n, measure):
    # blocks of 12 states: 12 + 12 + 6, each drawn as hs_mixed_batch draws it
    kernel = skew_coherence if measure == "skew" else relative_entropy_coherence
    monkeypatch.setattr(estimators, "_BLOCK_DRAWS", 12 * n * n + n)
    loop_rng = RngStream(53, 0)
    expected = [kernel(hs_mixed_batch(loop_rng, n, b)) for b in (12, 12, 6)]
    est = estimate_average("mixed", n, 30, seed=53, measure=measure, chunk_size=30)
    assert est == estimators._finish(estimators.stats_of(v[None])[0] for v in expected)


@pytest.mark.parametrize("ensemble, sampler", [("pure", "haar_populations_batch"),
                                               ("mixed", "_hs_mixed_slices")])
def test_mc_fails_closed_on_nan_state(monkeypatch, ensemble, sampler):
    draw = getattr(estimators, sampler)

    def one_nan_state(rng, n, count, *buffer):
        states = draw(rng, n, count, *buffer)
        states[count // 2] = np.nan
        return states

    def one_nan_state_in_slices(rng, n, count):
        at = 0
        for states in draw(rng, n, count):
            if at <= count // 2 < at + len(states):
                states[count // 2 - at] = np.nan
            at += len(states)
            yield states

    monkeypatch.setattr(estimators, sampler,
                        one_nan_state if ensemble == "pure" else one_nan_state_in_slices)
    for measure in ("skew", "rel-ent"):
        with pytest.raises(ValueError):
            estimate_average(ensemble, 3, 2000, seed=1, measure=measure)
    with pytest.raises(ValueError):
        estimate_tail(ensemble, 3, 0.1, 2000, seed=1)
    assert cli.main(["mc", "--ensemble", ensemble, "--dim", "3", "--samples", "2000"]) == 2


def test_estimate_tail_impossible_deviation():
    tail = estimate_tail("pure", 2, 2.0, 2000, seed=1)
    assert tail.frequency == 0.0
    assert tail.center == pytest.approx(1.0 / 3.0)
    assert tail.bound == cf.tail_bound_pure(2, 2.0)


def test_estimate_tail_counts_deviations():
    # tiny epsilon: nearly every draw deviates by more than it
    tail = estimate_tail("pure", 4, 1e-6, 2000, seed=2)
    assert tail.frequency > 0.9
    assert tail.n_samples == 2000


def test_estimate_tail_mixed_states():
    tail = estimate_tail("mixed", 3, 0.05, 3000, seed=3, chunk_size=700)
    assert tail.center == cf.avg_coherence_mixed(3)
    assert tail.bound == cf.tail_bound_mixed(3, 0.05)
    assert tail.n_samples == 3000
    # the spread of C at N = 3 is a few times 0.05, so both outcomes occur
    assert 0.0 < tail.frequency < 1.0
    two = estimate_tail("mixed", 3, 0.05, 3000, seed=3, chunk_size=700, threads=2)
    assert two == tail


def test_ensembles_are_told_apart_in_one_place():
    # every entry point refuses an unknown ensemble with _coherence_task's error
    unknown = "unknown ensemble 'induced'; expected 'pure' or 'mixed'"
    for call in (lambda: estimate_average("induced", 3, 10, seed=1),
                 lambda: estimate_tail("induced", 3, 0.1, 10, seed=1),
                 lambda: _coherence_task("induced", 3, "skew")):
        with pytest.raises(ValueError, match=re.escape(unknown)):
            call()
    # the CLI offers exactly ENSEMBLES to mc and tail
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command in ("mc", "tail"):
        (ensemble,) = (a for a in commands[command]._actions if a.dest == "ensemble")
        assert tuple(ensemble.choices) == estimators.ENSEMBLES == ("pure", "mixed")
    # each task carries its draws per state and its ensemble's closed forms
    closed = {"pure": (1, cf.avg_coherence_pure, cf.tail_bound_pure),
              "mixed": (2, cf.avg_coherence_mixed, cf.tail_bound_mixed)}
    for ensemble in estimators.ENSEMBLES:
        power, mean, bound = closed[ensemble]
        for n in (2, 3):
            task = _coherence_task(ensemble, n, "skew")
            assert task.group_entries == n**power
            assert task.mean is mean and task.bound is bound


def _tail_task(monkeypatch, ensemble, n, epsilon):
    """The task estimate_tail hands the engine, and the center it measures from."""
    handed = []

    def engine(task, *args):
        handed.append(task)
        return estimators.EstimatorResult(mean=0.0, stderr=0.0, n_samples=2)

    monkeypatch.setattr(estimators, "run_chunked", engine)
    center = estimate_tail(ensemble, n, epsilon, 2, seed=1).center
    return handed[0], center


@pytest.mark.parametrize("ensemble, n, epsilon, streams, count", [
    ("pure", 2, 0.1, 8, 1024),   # one group of 8 chunks, one slice for all streams
    ("mixed", 46, 0.004, 2, 30),  # slices of 7 states: 7 + 7 + 7 + 7 + 2 per stream
])
def test_tail_task_flags_the_measure_task_values(monkeypatch, ensemble, n, epsilon, streams,
                                                 count):
    if ensemble == "mixed":
        assert len(next(sampling._hs_mixed_slices([RngStream(0)], n, count))) == 7
    tail, center = _tail_task(monkeypatch, ensemble, n, epsilon)
    assert tail.group_entries == _coherence_task(ensemble, n, "skew").group_entries
    assert center == _coherence_task(ensemble, n, "skew").mean(n)
    values = _coherence_task(ensemble, n, "skew")([RngStream(61, k) for k in range(streams)],
                                                  count)
    flags = tail([RngStream(61, k) for k in range(streams)], count)
    assert flags.dtype == np.float64 and 0.0 < flags.mean() < 1.0
    assert np.array_equal(flags, (np.abs(values - center) > epsilon).astype(float))


def test_figure1_sweep_rows():
    rows = figure1_sweep(3, 4000, seed=5)
    assert [row.n for row in rows] == [2, 4, 8]
    for row in rows:
        assert row.analytic == cf.avg_coherence_mixed(row.n)
        assert abs(row.mc_mean - row.analytic) < 4 * row.mc_stderr
        est = estimate_average("mixed", row.n, 4000, 5)
        assert (row.mc_mean, row.mc_stderr) == (est.mean, est.stderr)
    with pytest.raises(ValueError):
        figure1_sweep(0, 100, seed=1)


def test_pure_coherence_nearly_maximal_at_large_dimension():
    # 1st percentile of the coherence at N=64 sits above 0.9
    p = np.abs(haar_pure_batch(RngStream(97, 0), 64, 10**4)) ** 2
    values = 1.0 - (p * p).sum(axis=1)
    assert np.percentile(values, 1) > 0.9


def test_estimate_average_mixed_agreement():
    est = estimate_average("mixed", 3, 2 * 10**4, seed=31)
    assert abs(est.mean - cf.avg_coherence_mixed(3)) < 4 * est.stderr


def test_relative_entropy_average_matches_harmonic_form():
    est = estimate_average("pure", 4, 5 * 10**4, seed=17, measure="rel-ent")
    assert abs(est.mean - (25.0 / 12.0 - 1.0)) < 4 * est.stderr
