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

# Up to this order haar_unitary_batch orthonormalizes by Gram-Schmidt instead
# of LAPACK QR, which there costs mostly per-matrix call overhead. On 4096
# matrices (2-core x86-64, OpenBLAS 0.3.31) the step took 0.76 vs 4.8 ms at
# n = 2 and 2.7 vs 8.1 ms at n = 3, but 32 vs 24 ms at n = 8 and 2.3 vs 0.28 s
# at n = 32. The twirl oracle, the hot caller, runs at n = 2 and 3.
_GRAM_SCHMIDT_MAX_DIM = 3

# hs_mixed_batch forms its Gram matrices max(1, ⌊_GRAM_SLICE_ENTRIES / n⌋)
# states at a time, so each step's complex temporaries hold about 256·n KiB.
_GRAM_SLICE_ENTRIES = 16384

# Up to this order hs_mixed_batch forms G G† entry by entry, not by a batched
# matmul: on 2^21 drawn entries (2-core x86-64, OpenBLAS 0.3.31) the step took
# 0.05 vs 0.28 s at n = 2 and 0.06 vs 0.19 s at n = 3, results <= 3.4e-16 apart.
_ELEMENTWISE_GRAM_MAX_DIM = 3

_UNIFORM_SLICE = 65536  # draws per scaling step of uniform and of the phase (512 KiB)


def _splitmix64(z: int) -> int:
    # Standard splitmix64 finalizer: full avalanche of one 64-bit word.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Counter-based random stream: Philox keyed by a splitmix64 avalanche mix
    of (master_seed, stream_index).

    Uniform doubles come straight from the raw 64-bit Philox output, and
    Gaussians use the polar Box-Muller transform (radius from the first
    uniform block, phase from the second). Both choices are fixed because
    they determine the bit-level output.

    A stream must not be shared between concurrent workers; the chunked engine
    gives each worker its own and re-keys them from chunk to chunk.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        self._bits, self._seed = np.random.Philox(), None
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

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        raw = self._bits.random_raw(n)
        raw >>= np.uint64(11)
        out = raw.view(np.float64)
        # the 53-bit integers convert exactly, so scaling into the same buffer
        # gives the bits of (raw >> 11) * 2**-53; numpy copies an input that
        # overlaps its output first, so slices keep that copy to one slice
        for s in range(0, n, _UNIFORM_SLICE):
            np.multiply(raw[s:s + _UNIFORM_SLICE], 2.0 ** -53, out=out[s:s + _UNIFORM_SLICE])
        return out

    def complex_normal(self, n: int) -> np.ndarray:
        """n iid standard complex normals, E|z|^2 = 1 (Re/Im variance 1/2 each)."""
        # radius = sqrt(-log1p(-u1)) and z = radius * exp(2j pi u2) in place, 24 B
        # per draw: the phase uniforms go slice by slice into z.imag, scaled by
        # 2 pi 2^-53 at once, which is 2 pi u2 bit for bit (2^-53 scales exactly)
        radius = self.exponential(n)
        np.sqrt(radius, out=radius)
        z = np.zeros(n, dtype=complex)
        for s in range(0, n, _UNIFORM_SLICE):
            raw = self._bits.random_raw(min(_UNIFORM_SLICE, n - s))
            raw >>= np.uint64(11)
            np.multiply(raw, 2 * np.pi * 2.0 ** -53, out=z.imag[s:s + _UNIFORM_SLICE])
            del raw  # else it lives on while the next slice is drawn
        np.exp(z, out=z)
        return np.multiply(radius, z, out=z)

    def exponential(self, n: int) -> np.ndarray:
        """n iid Exponential(1) variates by inverse transform, -log1p(-u), in place."""
        u = self.uniform(n)
        np.log1p(np.negative(u, out=u), out=u)
        return np.negative(u, out=u)

    def _skip(self, n: int) -> None:
        """Leave the stream where uniform(n) would, without drawing it.

        Philox yields its 64-bit outputs four per counter step: those still
        buffered are dropped, whole steps are jumped by `advance` (which also
        empties the buffer), and the last partial step is drawn.
        """
        buffered = 4 - self._bits.state["buffer_pos"]
        if n <= buffered:
            self._bits.random_raw(n)
            return
        rest = n - buffered
        self._bits.advance(rest // 4)
        self._bits.random_raw(rest % 4)


def haar_pure_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n) array of Haar-random pure states (normalized Gaussian vectors)."""
    _require_dim(n)
    z = rng.complex_normal(count * n).reshape(count, n)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_populations_batch(rng, n: int, count: int) -> np.ndarray:
    """(count, n) populations |psi_k|^2 of the states haar_pure_batch draws.

    The squared radius of a polar Box-Muller normal is the Exponential(1)
    variate of its first uniform block, so p = e / sum(e) equals the
    haar_pure_batch populations up to round-off without the phase block,
    which is skipped: the stream is left where haar_pure_batch leaves it.

    Given a list of streams, it stacks `count` states of each in list order
    and normalizes them in one pass, row by row: the bits of one call each.
    """
    _require_dim(n)
    blocks = []
    for stream in rng if isinstance(rng, list) else [rng]:
        blocks.append(stream.exponential(count * n).reshape(count, n))
        stream._skip(count * n)
    e = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    return e / _column_sum(e)[:, None]


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization with positive real R diagonal, column by
    column with classical Gram-Schmidt run twice (CGS2), which keeps Q
    orthonormal to round-off. Plain einsum and norm, no BLAS call."""
    q = np.empty_like(g)
    for j in range(g.shape[-1]):
        v = g[:, :, j]
        basis = q[:, :, :j]
        for _ in range(2 if j else 0):
            v = v - np.einsum("bij,bj->bi", basis, np.einsum("bij,bi->bj", basis.conj(), v))
        q[:, :, j] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return q


def haar_unitary_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n, n) array of Haar-random unitaries.

    Q of the QR factorization of a Gaussian matrix whose R has a positive real
    diagonal (Mezzadri 2007); plain LAPACK QR alone is not Haar distributed,
    so above _GRAM_SCHMIDT_MAX_DIM each column of its Q is divided by the phase
    of the corresponding R diagonal entry.
    """
    _require_dim(n)
    g = rng.complex_normal(count * n * n).reshape(count, n, n)
    if n <= _GRAM_SCHMIDT_MAX_DIM:
        return _gram_schmidt(g)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d.conj() / np.abs(d))[:, None, :]


def _column_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1), bit for bit: numpy adds up to 7 entries in order, as one column
    after another does without its per-row loop; its pairwise sum of 8 or more differs."""
    if x.shape[-1] > 7:
        return x.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(x, -1, 0))


def _elementwise_gram(block: np.ndarray) -> None:
    """Overwrite each matrix G of the block with G G† / Tr(G G†) entry by entry: the
    real diagonal sum_k |G_ik|^2, the upper triangle sum_k G_ik conj(G_jk), its conjugate."""
    n = block.shape[-1]
    upper_i, upper_j = np.triu_indices(n, 1)
    diagonal = _column_sum(block.real ** 2 + block.imag ** 2)
    upper = _column_sum(block[:, upper_i] * block[:, upper_j].conj())
    trace = _column_sum(diagonal)[:, None]
    upper /= trace
    i = np.arange(n)
    block[:, i, i] = diagonal / trace
    block[:, upper_i, upper_j] = upper
    block[:, upper_j, upper_i] = upper.conj()


def hs_mixed_batch(rng: RngStream, n: int, count: int) -> np.ndarray:
    """(count, n, n) array of Hilbert-Schmidt random density matrices.

    Gram construction G G† / Tr(G G†) with G an n x n complex Gaussian matrix,
    which is distributed exactly as the partial trace of a Haar bipartite pure
    state on an n*n product space. The Gram and trace steps run slice by slice
    and overwrite the drawn block, so the temporaries stay small; each matrix
    sees the same operations as on the whole block. Each matrix is exactly
    Hermitian with a real diagonal, as the coherence kernels require, so
    hermitian_part returns it unchanged bit for bit.
    """
    _require_dim(n)
    g = rng.complex_normal(count * n * n).reshape(count, n, n)
    step = max(1, _GRAM_SLICE_ENTRIES // n)
    for start in range(0, count, step):
        block = g[start:start + step]
        if n <= _ELEMENTWISE_GRAM_MAX_DIM:
            _elementwise_gram(block)
            continue
        w = block @ np.conj(np.swapaxes(block, 1, 2))
        w = (w + np.conj(np.swapaxes(w, 1, 2))) / 2
        trace = np.einsum("bii->b", w).real
        np.divide(w, trace[:, None, None], out=block)
    return g
