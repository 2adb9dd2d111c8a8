import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from haar_coherence import sampling
from haar_coherence.estimators import run_chunked
from haar_coherence.linalg import hermitian_part, partial_trace_b
from haar_coherence.sampling import (RngStream, haar_pure_batch,
                                     haar_unitary_batch, hs_mixed_batch)


def test_stream_determinism():
    a = RngStream(1, 0).complex_normal(64)
    b = RngStream(1, 0).complex_normal(64)
    assert np.array_equal(a, b)


def test_streams_differ_across_indices_and_seeds():
    base = RngStream(1, 0).uniform(32)
    assert not np.array_equal(base, RngStream(1, 1).uniform(32))
    assert not np.array_equal(base, RngStream(2, 0).uniform(32))


@pytest.mark.parametrize("seed, index", [(7, 0), (7, 1), (7, 2**64 - 1), (2**64 + 7, 5)])
def test_rekeyed_stream_is_the_new_stream(seed, index):
    # three draws leave one Philox output buffered: the re-key must drop it
    # and start the counter over, and the seed is masked to 64 bits as in
    # the constructor
    stream = RngStream(99, 4)
    stream.uniform(3)
    stream._rekey(seed, index)
    expected = RngStream(seed, index).uniform(9)
    assert np.array_equal(stream.uniform(9), expected)
    assert np.array_equal(RngStream(seed % 2**64, index).uniform(9), expected)


def test_rekey_across_master_seeds_keeps_no_stale_seed_mix():
    # the stream keeps the mix of the last master seed: switching seeds back
    # and forth on one object must key every stream afresh
    stream = RngStream(3, 0)
    for seed in (11, 2**64 - 5, 11, 3, 2**64 - 5):
        for index in (0, 1, 7, 2**64 - 1):
            stream._rekey(seed, index)
            assert np.array_equal(stream.uniform(6), RngStream(seed, index).uniform(6))


@pytest.mark.parametrize("n", range(2, 10))
def test_column_sum_has_the_bits_of_numpy_sum(n):
    # numpy adds up to 7 entries in order; from 8 on _column_sum is numpy's sum
    e = RngStream(61, n).exponential(200_000 * n).reshape(-1, n)
    for x in (e, e * e):
        assert np.array_equal(sampling._column_sum(x), x.sum(axis=-1))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 29])
def test_populations_of_several_streams_are_those_of_each(n):
    together = [RngStream(67, k) for k in range(3)]
    apart = [RngStream(67, k) for k in range(3)]
    stacked = sampling.haar_populations_batch(together, n, 50)
    each = [sampling.haar_populations_batch([stream], n, 50) for stream in apart]
    assert np.array_equal(stacked, np.concatenate(each))
    for a, b in zip(together, apart):
        assert np.array_equal(a.uniform(5), b.uniform(5))


@pytest.mark.parametrize("method", ["uniform", "exponential"])
def test_real_draws_hold_one_buffer_plus_one_slice(method):
    # numpy copies an input that overlaps its output; scaling slice by slice
    # keeps that copy to one slice instead of the whole draw. The slack covers
    # the ufunc's own 64 KiB casting buffer.
    n = 10**6
    rng = RngStream(3, 1)
    tracemalloc.start()
    try:
        getattr(rng, method)(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 8 * sampling._UNIFORM_SLICE + 2**17


def test_complex_normals_hold_16_bytes_per_draw_plus_one_slice():
    # the output (16 B per draw); the radii and the phase uniforms are read slice
    # by slice, and the slack covers the ufunc's casting buffer. Drawing the radii
    # whole held 24 B per draw
    n = 10**6
    rng = RngStream(3, 2)
    tracemalloc.start()
    try:
        rng.complex_normal(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 16 * sampling._UNIFORM_SLICE + 2**17


@pytest.mark.parametrize("offset", range(4))
@pytest.mark.parametrize("n", [0, 1, 7, 2 * sampling._UNIFORM_SLICE + 3])
def test_complex_normals_are_the_radii_then_the_phases(offset, n):
    # polar Box-Muller from any place in Philox's 4-output buffer: the n radii,
    # then the n phases, and the stream left past both
    stream, twin = RngStream(41, 2), RngStream(41, 2)
    stream.uniform(offset)
    twin.uniform(offset)
    z = stream.complex_normal(n)
    radius = np.sqrt(twin.exponential(n))
    phase = np.zeros(n, dtype=complex)
    phase.imag = twin.uniform(n) * (2 * np.pi)
    assert np.array_equal(z, radius * np.exp(phase))
    assert np.array_equal(stream.uniform(5), twin.uniform(5))


@pytest.mark.parametrize("size", ["one slice", "exact", "three slices", "oversize"])
def test_normals_fill_any_buffer_with_complex_normals(size):
    # n draws in three slices, the last short, into a buffer of one slice (each slice at its
    # start), of exactly n, of three whole slices or of 10 n (each slice at its place in the
    # first n entries): complex_normal's normals, and the stream left where it leaves it
    step = 1000
    n = 2 * step + 5
    out = np.empty({"one slice": step, "exact": n, "three slices": 3 * step,
                    "oversize": 10 * n}[size], dtype=complex)
    stream, twin = RngStream(43, 1), RngStream(43, 1)
    stream.uniform(1)
    twin.uniform(1)
    parts = [part.copy() for part in stream._normals(n, step, out)]
    expected = twin.complex_normal(n)
    assert [len(part) for part in parts] == [step, step, 5]
    assert np.array_equal(np.concatenate(parts), expected)
    if out.size >= n:
        assert np.array_equal(out[:n], expected)
    assert np.array_equal(stream.uniform(5), twin.uniform(5))


def test_uniform_range():
    u = RngStream(9, 4).uniform(10**5)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_gaussian_moments():
    z = RngStream(5, 0).complex_normal(10**6)
    n = z.size
    # Re/Im each have variance 1/2, so the mean has stderr sqrt(0.5/n) per part
    stderr_mean = math.sqrt(0.5 / n)
    assert abs(z.real.mean()) < 4 * stderr_mean
    assert abs(z.imag.mean()) < 4 * stderr_mean
    sq = np.abs(z) ** 2
    assert abs(sq.mean() - 1.0) < 4 * sq.std(ddof=1) / math.sqrt(n)


def test_haar_pure_unit_norm_and_phase_case():
    psi = haar_pure_batch(RngStream(11, 0), 1, 1)[0]
    assert abs(abs(psi[0]) - 1.0) < 1e-12
    batch = haar_pure_batch(RngStream(11, 1), 6, 500)
    norms = np.linalg.norm(batch, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_haar_pure_uniform_marginals():
    n, samples = 4, 10**5
    p = np.abs(haar_pure_batch(RngStream(17, 0), n, samples)) ** 2
    stderr = p.std(ddof=1, axis=0) / math.sqrt(samples)
    assert np.all(np.abs(p.mean(axis=0) - 1.0 / n) < 4 * stderr)


def test_haar_pure_component_cdf():
    # |<1|psi>|^2 has cdf 1 - (1 - r)^(N-1) on [0, 1]
    n, samples = 8, 10**5
    r = np.abs(haar_pure_batch(RngStream(23, 0), n, samples)[:, 0]) ** 2
    stat = kstest(r, lambda x: 1.0 - (1.0 - x) ** (n - 1)).statistic
    assert stat < 0.01


def test_haar_unitary_unitarity():
    u1 = haar_unitary_batch(RngStream(31, 0), 1, 1)[0]
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    batch = haar_unitary_batch(RngStream(31, 1), 16, 100)
    eye = np.eye(16)
    for u in batch:
        assert np.linalg.norm(u.conj().T @ u - eye) < 1e-10


def _lapack_haar_unitaries(g):
    # QR with each column of Q divided by the phase of its R diagonal entry
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d.conj() / np.abs(d))[:, None, :]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_schmidt_unitaries_match_lapack_route(n):
    count = 2 * 10**4
    rng = RngStream(71, n)
    u = haar_unitary_batch(rng, n, count)
    reference = RngStream(71, n)
    expected = _lapack_haar_unitaries(reference.complex_normal(count * n * n)
                                      .reshape(count, n, n))
    assert np.abs(u - expected).max() <= 1e-12
    gram = np.einsum("bki,bkj->bij", u.conj(), u)
    assert np.abs(gram - np.eye(n)).max() <= 1e-14
    # the same draws were taken: both streams continue identically
    assert np.array_equal(rng.uniform(8), reference.uniform(8))


def test_unitaries_above_gram_schmidt_cutoff_use_lapack():
    u = haar_unitary_batch(RngStream(73, 0), 4, 50)
    g = RngStream(73, 0).complex_normal(50 * 16).reshape(50, 4, 4)
    assert np.array_equal(u, _lapack_haar_unitaries(g))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_orthonormalize_gives_each_matrix_its_own_bits(n):
    # on both routes (Gram-Schmidt up to _GRAM_SCHMIDT_MAX_DIM, LAPACK QR above) a stack's
    # unitaries are bit for bit those of its uneven sub-stacks, as the twirl oracle's slices are
    g = RngStream(83, n).complex_normal(1000 * n * n).reshape(1000, n, n)
    cuts = [0, 1, 8, 9, 400, 997, 1000]
    parts = [sampling._orthonormalize(g[start:stop]) for start, stop in zip(cuts, cuts[1:])]
    assert np.array_equal(sampling._orthonormalize(g), np.concatenate(parts))


def test_haar_unitary_first_column_matches_pure_sampler():
    n, samples = 5, 2 * 10**4
    col = haar_unitary_batch(RngStream(37, 0), n, samples)[:, :, 0]
    direct = haar_pure_batch(RngStream(37, 1), n, samples)
    stat = ks_2samp(np.abs(col[:, 0]) ** 2, np.abs(direct[:, 0]) ** 2).statistic
    assert stat < 0.02


def test_hs_mixed_is_valid_density_matrix():
    rho = hs_mixed_batch(RngStream(41, 0), 1, 1)[0]
    assert np.allclose(rho, [[1.0]])
    batch = hs_mixed_batch(RngStream(41, 1), 5, 200)
    # exactly Hermitian: symmetrizing again changes no bit
    assert hermitian_part(batch).tobytes() == batch.tobytes()
    for rho in batch:
        assert np.array_equal(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_hs_mixed_mean_is_maximally_mixed():
    n, samples = 3, 10**5
    batch = hs_mixed_batch(RngStream(43, 0), n, samples)
    mean = batch.mean(axis=0)
    stderr = batch.std(ddof=1, axis=0) / math.sqrt(samples)
    assert np.all(np.abs(mean - np.eye(n) / n) < 4 * stderr + 1e-12)


def simplex_purity_moment():
    # E[Tr rho^2] at N=2 from the eigenvalue density 3 (2l - 1)^2 on [0, 1]
    value, _ = quad(lambda lam: 3 * (2 * lam - 1) ** 2 * (lam**2 + (1 - lam) ** 2), 0, 1)
    return value


def test_hs_mixed_purity_moment():
    target = simplex_purity_moment()
    assert target == pytest.approx(0.8, abs=1e-12)
    batch = hs_mixed_batch(RngStream(47, 0), 2, 10**5)
    purity = np.einsum("bij,bji->b", batch, batch).real
    stderr = purity.std(ddof=1) / math.sqrt(purity.size)
    assert abs(purity.mean() - target) < 4 * stderr


def test_bipartite_pure_contract():
    psi = haar_pure_batch(RngStream(53, 0), 1 * 1, 1)[0]
    assert psi.shape == (1,)
    batch = haar_pure_batch(RngStream(53, 1), 4, 300)
    assert np.abs(np.linalg.norm(batch, axis=1) - 1.0).max() < 1e-12


def test_bipartite_reduction_purity_moment():
    target = simplex_purity_moment()
    rng = RngStream(59, 0)
    purities = np.empty(10**4)
    for i in range(purities.size):
        psi = haar_pure_batch(rng, 2 * 2, 1)[0]
        rho = partial_trace_b(np.outer(psi, psi.conj()), 2, 2)
        purities[i] = np.trace(rho @ rho).real
    stderr = purities.std(ddof=1) / math.sqrt(purities.size)
    assert abs(purities.mean() - target) < 4 * stderr


def _coherence_of(batch):
    w, v = np.linalg.eigh(batch)
    root = np.sqrt(np.clip(w, 0.0, None))
    diag = np.einsum("bka,ba->bk", np.abs(v) ** 2, root)
    return 1.0 - (diag * diag).sum(axis=1)


def test_gram_and_bipartite_routes_agree():
    # same coherence distribution through either construction
    n, samples = 3, 10**4
    direct = hs_mixed_batch(RngStream(61, 0), n, samples)
    amplitudes = haar_pure_batch(RngStream(61, 1), n * n, samples).reshape(-1, n, n)
    gram = amplitudes @ np.conj(np.swapaxes(amplitudes, 1, 2))
    gram = (gram + np.conj(np.swapaxes(gram, 1, 2))) / 2
    assert ks_2samp(_coherence_of(direct), _coherence_of(gram)).statistic < 0.02


def _unsliced_gram(g):
    w = g @ np.conj(np.swapaxes(g, 1, 2))
    w = (w + np.conj(np.swapaxes(w, 1, 2))) / 2
    return w / np.einsum("bii->b", w).real[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32])
def test_hs_mixed_slices_match_unsliced_formula(n):
    # two full slices and a short last one, against the whole block's normals drawn at
    # once and its Gram step run on all of them: the same bytes, and the stream left at
    # the same place; hs_mixed_batch, which forms them in place in its result, too. Up to
    # N = 3 the Gram step is elementwise, within round-off of the matmul formula; at every
    # N exactly Hermitian with an exactly real diagonal. A slice holds max(1, 2^16 // N^2)
    # states up to N = 3 and max(1, 2^14 // N^2) above
    per_slice = {1: 2**16, 2: 2**14, 3: 7281, 4: 2**10, 8: 2**8, 16: 64, 32: 16}[n]
    count = 2 * per_slice + 5
    whole, sliced, batched = RngStream(31, n), RngStream(31, n), RngStream(31, n)
    g = whole.complex_normal(count * n * n).reshape(count, n, n)
    expected = _unsliced_gram(g)
    slices = [states.copy() for states in sampling._hs_mixed_slices([sliced], n, count)]
    assert [len(states) for states in slices] == [per_slice, per_slice, 5]
    rho = np.concatenate(slices)
    assert np.array_equal(rho, hs_mixed_batch(batched, n, count))
    after = whole.uniform(5)
    assert np.array_equal(after, sliced.uniform(5)) and np.array_equal(after, batched.uniform(5))
    assert np.array_equal(rho, sampling._gram(g))
    assert np.abs(rho - expected).max() <= (0 if n > sampling._ELEMENTWISE_GRAM_MAX_DIM else 1e-15)
    assert np.array_equal(rho, np.conj(np.swapaxes(rho, 1, 2)))
    assert not np.diagonal(rho, axis1=1, axis2=2).imag.any()


def test_two_block_mixed_chunk_matches_unsliced_formula():
    # at N = 46 the engine draws a 1024-state chunk as two blocks, 991 + 33 states, and
    # the sampler reads them 7 states a slice: each block has the bytes of its normals
    # drawn whole, and the second starts where the first left the stream
    n, blocks = 46, []

    def task(streams, count):
        blocks.append(np.concatenate([states.copy() for states in
                                      sampling._hs_mixed_slices(streams, n, count)]))
        return np.zeros((1, count))

    task.group_entries = n * n
    run_chunked(task, 1024, 1024, master_seed=37)
    assert [len(block) for block in blocks] == [991, 33]
    whole = RngStream(37, 0)
    for block in blocks:
        g = whole.complex_normal(len(block) * n * n).reshape(-1, n, n)
        assert np.array_equal(block, _unsliced_gram(g))


def test_hs_mixed_slices_hold_a_few_slices():
    # 1024 states at N = 32 are 64 slices of 16 states (2^14 entries, 256 KiB): a call
    # holds one slice and its Gram temporaries (0.88 MiB measured; 1.13 when the Gram step
    # added and divided through layout buffers, 3.76 with slices of 2^16 entries); drawing
    # the radii whole held 8 MiB more
    list(sampling._hs_mixed_slices([RngStream(5, 0)], 32, 2))
    tracemalloc.start()
    try:
        for _ in sampling._hs_mixed_slices([RngStream(5, 0)], 32, 1024):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * sampling._MATMUL_SLICE

