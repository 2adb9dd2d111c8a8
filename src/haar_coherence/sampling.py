"""Reproducible sampling of Haar pure states, Haar unitaries and
Hilbert-Schmidt distributed mixed states.

Every sample is a pure function of (master_seed, stream_index, call sequence).
Distinct stream indices give statistically independent streams, so parallel
estimators assign one stream per work chunk and stay bit-reproducible for any
worker count.
"""

import functools

import numpy as np

from .linalg import _require_dim

_MASK64 = (1 << 64) - 1

# Up to this order _orthonormalize runs Gram-Schmidt instead of LAPACK QR, which
# there costs mostly per-matrix call overhead. On 4096 matrices (2-core x86-64,
# OpenBLAS 0.3.31) the step took 0.76 vs 4.8 ms at n = 2 and 2.7 vs 8.1 ms at
# n = 3, but 32 vs 24 ms at n = 8 and 2.3 vs 0.28 s at n = 32. The twirl oracle,
# the hot caller, runs at n = 2 and 3.
_GRAM_SCHMIDT_MAX_DIM = 3

# Up to this order hs_mixed_batch forms G G† entry by entry, not by a batched matmul: on
# 2^21 drawn entries in sampler slices (2-core x86-64, numpy 2.4.6, OpenBLAS 0.3.31) the
# step took 55 vs 271 ms at n = 2, 52 vs 110 at n = 3, 145 vs 80 at n = 4; <= 3.4e-16 apart.
_ELEMENTWISE_GRAM_MAX_DIM = 3
# Draws per hs_mixed_batch slice above it, on that host: a 1024-state chunk at N = 8-46 traced
# 3.6-3.8 MiB at 2^16, 1.15 at 2^14; figure1 to N = 32 on 2 threads peaked at 47.2 vs 41.8 MB.
_MATMUL_SLICE = 1 << 14
_UNIFORM_SLICE = 65536  # draws per normal or Vandermonde oracle slice


def _splitmix64(z: int) -> int:
    # Standard splitmix64 finalizer: full avalanche of one 64-bit word.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Counter-based random stream: Philox keyed by a splitmix64 avalanche mix
    of (master_seed, stream_index).

    Uniform doubles come straight from the raw 64-bit Philox output. Gaussians use the polar
    Box-Muller transform, radius from the first uniform block and phase e^(2 pi i u) from the
    second, by the half-angle tangent (bit contract v5). These choices fix the output's bits.

    A stream must not be shared between concurrent workers; the chunked engine
    gives each worker its own and re-keys them from chunk to chunk.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        self._bits, self._seed, self._ahead = np.random.Philox(), None, None
        self._uniforms = np.random.Generator(self._bits)
        self._rekey(master_seed, stream_index)

    def _rekey(self, master_seed: int, stream_index: int) -> None:
        """Become RngStream(master_seed, stream_index) at its start: a Philox stream is its
        key, a zero counter and an empty buffer (3.5 us to set, 19 to construct on x86-64).
        The mix of the master seed is kept from the last call, as the engine re-keys with one."""
        if master_seed != self._seed:
            self._seed, self._mixed = master_seed, _splitmix64(int(master_seed) & _MASK64)
        k0 = _splitmix64(self._mixed ^ (int(stream_index) & _MASK64))
        self._bits.state = {"bit_generator": "Philox", "buffer_pos": 4, "has_uint32": 0,
                            "uinteger": 0, "buffer": np.zeros(4, np.uint64),
                            "state": {"counter": np.zeros(4, np.uint64),
                                      "key": np.array([k0, _splitmix64(k0)], np.uint64)}}
        # outputs left of the four Philox computes per counter step: n draws leave (left - n) % 4
        self._left = 0

    def uniform(self, n: int, out=None) -> np.ndarray:
        """n doubles uniform on [0, 1), (raw >> 11) 2^-53 of the next n outputs, into `out`."""
        self._left = (self._left - n) % 4
        return self._uniforms.random(out=np.empty(n) if out is None else out)

    def complex_normal(self, n: int) -> np.ndarray:
        """n iid standard complex normals, E|z|^2 = 1 (Re/Im variance 1/2 each), 16 B a draw."""
        z = np.empty(n, dtype=complex)
        for _ in self._normals(n, _UNIFORM_SLICE, z):
            pass
        return z

    def _normals(self, n: int, step: int, out: np.ndarray):
        """Write the next n complex normals `step` at a time into `out` (at their place if it
        holds n, else at its start), yielding each slice. The stream holds the n radii, then the n
        phase uniforms u: e^(2 pi i u) = (h - 1) + i t h, t = tan(pi u), h = 2/(1 + t^2), one SIMD
        tan a normal. A spare stream set to this one's state once a call reads the radii."""
        if self._ahead is None:  # kept: a new Philox seeds from the OS (20 us; a set 5 us)
            self._ahead = RngStream(0)
        self._ahead._bits.state, self._ahead._left = self._bits.state, self._left
        self._skip(n)
        buffer = np.empty(min(step, n))
        for start in range(0, n, step):
            part = (out[start:start + step] if out.size >= n else out)[:min(step, n - start)]
            t = buffer[:part.size]  # the slice's phase uniforms u, then tan(pi u), then its radii
            np.tan(np.multiply(self.uniform(part.size, t), np.pi, out=t), out=t)
            h = np.divide(2.0, np.add(np.square(t, out=part.real), 1.0, out=part.real), out=part.real)
            np.multiply(t, h, out=part.imag)  # sin(2 pi u) = t h and cos(2 pi u) = h - 1
            np.subtract(h, 1.0, out=part.real)
            r = self._ahead.exponential(part.size, t)
            np.multiply(np.sqrt(r, out=r), part, out=part)
            yield part

    def exponential(self, n: int, out=None) -> np.ndarray:
        """n iid Exponential(1) variates by inverse transform, -log1p(-u), in place."""
        u = self.uniform(n, out)
        np.log1p(np.negative(u, out=u), out=u)
        return np.negative(u, out=u)

    def _skip(self, n: int) -> None:
        """Leave the stream where uniform(n) would, without drawing it: past the buffered
        outputs, whole counter steps are jumped by `advance`, which empties the buffer."""
        if n > self._left:
            self._bits.advance((n - self._left) // 4)
            n, self._left = (n - self._left) % 4, 0
        self._left = (self._left - n) % 4
        self._bits.random_raw(n)


def haar_pure_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n) array of Haar-random pure states (normalized Gaussian vectors)."""
    _require_dim(n)
    z = rng.complex_normal(count * n).reshape(count, n)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_populations_batch(streams: list, n: int, count: int, out=None) -> np.ndarray:
    """(len(streams) * count, n) populations |psi_k|^2 of the states haar_pure_batch draws.

    The squared radius of a polar Box-Muller normal is the Exponential(1)
    variate of its first uniform block, so p = e / sum(e) equals the
    haar_pure_batch populations up to round-off without the phase block,
    which is skipped: each stream is left where haar_pure_batch leaves it.

    It stacks `count` states of each stream in list order and normalizes them
    in one pass, row by row: the bits of one call per stream; in place in the
    float buffer `out` if given.
    """
    _require_dim(n)
    size = count * n
    e = (np.empty(len(streams) * size) if out is None else out)[:len(streams) * size]
    for at, stream in zip(range(0, e.size, size), streams):
        stream.exponential(size, e[at:at + size])
        stream._skip(size)
    e = e.reshape(-1, n)
    return np.divide(e, _column_sum(e)[:, None], out=e)


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (b, n, n) stack of complex Gaussian matrices, each its own bits: Q
    of the QR factorization with a positive real R diagonal (Mezzadri 2007). Up to
    _GRAM_SCHMIDT_MAX_DIM by classical Gram-Schmidt run twice (CGS2), plain einsum and norm;
    above, LAPACK's Q, not Haar alone, with each column divided by its R diagonal's phase."""
    if g.shape[-1] > _GRAM_SCHMIDT_MAX_DIM:
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=1, axis2=2)
        return q * (d.conj() / np.abs(d))[:, None, :]
    q = np.empty_like(g)
    for j in range(g.shape[-1]):
        v = g[:, :, j]
        basis = q[:, :, :j]
        for _ in range(2 if j else 0):
            v = v - np.einsum("bij,bj->bi", basis, np.einsum("bij,bi->bj", basis.conj(), v))
        q[:, :, j] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return q


def haar_unitary_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n, n) array of Haar-random unitaries, _orthonormalize of Gaussian matrices."""
    _require_dim(n)
    return _orthonormalize(rng.complex_normal(count * n * n).reshape(count, n, n))


def _column_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1), bit for bit: numpy adds up to 7 entries in order, as one column
    after another does without its per-row loop; its pairwise sum of 8 or more differs."""
    if x.shape[-1] > 7:
        return x.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(x, -1, 0))


def _gram(block: np.ndarray) -> np.ndarray:
    """Overwrite each matrix G of a (b, n, n) block with G G† / Tr(G G†) and return it. Above
    _ELEMENTWISE_GRAM_MAX_DIM, W = G G† is made exactly Hermitian in G's buffer as (W† + W)
    times 0.5 / Σ Re W_ii: the bits of ((W + W†)/2) / Tr W, as numpy divides a by t + 0j as
    a·fl(1/t) and fl(0.5/t) = fl(1/t)/2. Up to it entry by entry (diagonal, upper triangle,
    its conjugate) in real arithmetic, which rounds alike in any loop numpy picks."""
    n = block.shape[-1]
    if n > _ELEMENTWISE_GRAM_MAX_DIM:
        w = block @ np.conj(np.swapaxes(block, 1, 2))
        scale = (0.5 / np.einsum("bii->b", w).real).astype(complex)[:, None, None]
        np.add(np.conjugate(np.swapaxes(w, 1, 2), out=block), w, out=block)
        return np.multiply(block, scale, out=block)
    upper_i, upper_j = np.triu_indices(n, 1)
    diagonal = _column_sum(block.real ** 2 + block.imag ** 2)
    g_i, g_j = block[:, upper_i], block[:, upper_j]
    upper = _column_sum(g_i.real * g_j.real + g_i.imag * g_j.imag).astype(complex)
    upper.imag = _column_sum(g_i.imag * g_j.real - g_i.real * g_j.imag)
    trace = _column_sum(diagonal)[:, None]
    upper /= trace
    i = np.arange(n)
    block[:, i, i] = diagonal / trace
    block[:, upper_i, upper_j] = upper
    block[:, upper_j, upper_i] = upper.conj()
    return block


def _hs_mixed_slices(streams: list, n: int, count: int, out=None):
    """The `count` matrices of hs_mixed_batch of each stream, as (b, n, n) slices of max(1,
    ⌊2^16/n²⌋) states (2^14 above _ELEMENTWISE_GRAM_MAX_DIM) in one buffer, or in place in the
    (count, n, n) `out` of one stream. No bit depends on b."""
    step = max(1, (_UNIFORM_SLICE if n <= _ELEMENTWISE_GRAM_MAX_DIM else _MATMUL_SLICE) // n**2)
    g = np.empty(min(step, count) * n * n, dtype=complex) if out is None else out.reshape(-1)
    for rng in streams:
        for part in rng._normals(count * n * n, step * n * n, g):
            yield _gram(part.reshape(-1, n, n))


def hs_mixed_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n, n) array of Hilbert-Schmidt random density matrices.

    Gram construction G G† / Tr(G G†) with G an n x n complex Gaussian matrix, which is distributed
    exactly as the partial trace of a Haar bipartite pure state on an n*n product space (Życzkowski
    & Sommers 2001), formed in place slice by slice: 16 B per entry plus one slice's temporaries.
    Each matrix is exactly Hermitian with a real diagonal: hermitian_part keeps all its bits."""
    _require_dim(n)
    rho = np.empty((count, n, n), dtype=complex)
    for _ in _hs_mixed_slices([rng], n, count, rho):
        pass
    return rho
