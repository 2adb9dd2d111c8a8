"""Independent verification engines.

Each quantity checked here is reachable by two unrelated routes: the
closed-form series against exact generalized Gauss-Laguerre quadrature, the
unitary twirl formula against brute-force Haar averaging, and the spectral
closed forms against Monte Carlo over the actual samplers. The quadrature
route never touches the series code in :mod:`haar_coherence.closed_forms`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import MAX_TABLE_SIZE, MomentTable
from .estimators import (EstimatorResult, _block_sizes, _block_states, _block_stats, _finish,
                         _single_threaded_blas)
from .linalg import _require_dim, _require_psd, hermitian_eigvalsh, swap_operator
from .sampling import _UNIFORM_SLICE, RngStream, _hs_mixed_slices, haar_unitary_batch

# Unitaries per haar_unitary_batch call of the twirl MC. Block boundaries fix
# where each draw splits the stream, so a different size moves the result.
_TWIRL_BLOCK = 4096

# Above this dimension the heavy-tailed Vandermonde integrand makes the plain
# Monte Carlo estimate useless at desk-scale sample counts.
_VANDERMONDE_MAX_DIM = 4


@dataclass(frozen=True)
class QuadratureRule:
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray


# The scaled recurrences below carry each node's value as m 2^s. Shifting m
# by exact powers of two changes no bit wherever nothing under- or overflows,
# and keeps |m| near or below 2^_SCALE_BITS however small e^{-x/2} gets.
_SCALE_BITS = 500


def _half_exp(x: np.ndarray):
    """Mantissa m >= 2^-_SCALE_BITS and exponent s <= 0 with m 2^s = e^{-x/2}.

    e^{-x/2} at the largest node is subnormal from a 364-point rule on and 0
    from 383 points on; s is 0 wherever e^{-x/2} >= 2^-_SCALE_BITS.
    """
    s = np.minimum(_SCALE_BITS - np.ceil(x / (2 * math.log(2.0))), 0.0).astype(np.intc)
    return np.exp(-x / 2 - s * math.log(2.0)), s


def _renormalize(prev: np.ndarray, cur: np.ndarray, s: np.ndarray):
    # One dot product is the cheapest test per step; it exceeds the bound
    # whenever some |cur| > 2^_SCALE_BITS, and is inf or NaN if cur is.
    if not np.dot(cur, cur) <= 2.0 ** (2 * _SCALE_BITS):
        shift = np.where(np.abs(cur) > 2.0**_SCALE_BITS, -_SCALE_BITS, 0).astype(np.intc)
        prev, cur, s = np.ldexp(prev, shift), np.ldexp(cur, shift), s - shift
    return prev, cur, s


def _laguerre_nodes(alpha: float, n_nodes: int) -> np.ndarray:
    """Eigenvalues of the generalized Laguerre Jacobi matrix. LAPACK's dsyevd
    reduces this already tridiagonal matrix by zero reflectors, so its dsterf gets
    the diagonals scipy.linalg.eigh_tridiagonal passes: the same nodes, bit for bit.
    OpenBLAS runs it on one thread, where this small solve is several times faster."""
    i = np.arange(n_nodes, dtype=float)
    with _single_threaded_blas():
        return np.linalg.eigvalsh(np.diag(2 * i + alpha + 1)
                                  + np.diag(np.sqrt(i[1:] * (i[1:] + alpha)), -1))


def _scaled_rule(alpha: float, n_nodes: int):
    """Nodes plus weights premultiplied by e^{x} (the Christoffel function of
    the e^{-x/2}-scaled orthonormal polynomials).

    Working in scaled space keeps every intermediate O(1); the raw weights at
    the largest nodes of a 100+ point rule are ~1e-220 and their eigenvector
    components underflow when squared.
    """
    try:
        mu0 = math.exp(math.lgamma(alpha + 1.0))
    except OverflowError:
        raise ValueError(f"weight exponent {alpha} is too large: "
                         f"Gamma({alpha} + 1) overflows a double") from None
    nodes = _laguerre_nodes(alpha, n_nodes)
    cur, s = _half_exp(nodes)
    cur = cur / math.sqrt(mu0)
    prev = np.zeros_like(nodes)
    norm_sum = np.ldexp(cur, s)**2
    for k in range(1, n_nodes):
        a_prev = 2 * (k - 1) + alpha + 1
        b_prev = math.sqrt((k - 1) * (k - 1 + alpha)) if k >= 2 else 0.0
        b_cur = math.sqrt(k * (k + alpha))
        prev, cur = cur, ((nodes - a_prev) * cur - b_prev * prev) / b_cur
        prev, cur, s = _renormalize(prev, cur, s)
        norm_sum += np.ldexp(cur, s)**2
    return nodes, 1.0 / norm_sum


def gauss_laguerre_rule(alpha: float, n_nodes: int) -> QuadratureRule:
    """Golub-Welsch generalized Gauss-Laguerre rule for weight x^alpha e^{-x}.

    Nodes are the eigenvalues of the symmetric Jacobi matrix of the
    generalized Laguerre recurrence; the rule integrates polynomials up to
    degree 2 n_nodes - 1 exactly.
    """
    if alpha <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {alpha}")
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    nodes, scaled = _scaled_rule(alpha, n_nodes)
    return QuadratureRule(alpha=alpha, nodes=nodes, weights=scaled * np.exp(-nodes))


def _scaled_laguerre_rows(n_rows: int, x: np.ndarray) -> np.ndarray:
    # L_k(x) e^{-x/2} for k = 0..n_rows-1; the scaling commutes with the
    # linear recurrence and avoids the ~1e100 magnitudes of the raw L_k.
    rows = np.empty((n_rows, x.size))
    cur, s = _half_exp(x)
    prev = np.zeros_like(x)
    np.ldexp(cur, s, out=rows[0])
    for k in range(n_rows - 1):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        prev, cur, s = _renormalize(prev, cur, s)
        np.ldexp(cur, s, out=rows[k + 1])
    return rows


def quadrature_moment_table(n: int, q: float) -> MomentTable:
    """Full moment table for degrees 0..n-1 from one shared (n + 2)-node rule;
    refuses n above MAX_TABLE_SIZE, as the series does, before allocating."""
    if n < 1:
        raise ValueError(f"table size must be >= 1, got {n}")
    if n > MAX_TABLE_SIZE:
        raise ValueError(f"table size {n} exceeds the supported maximum {MAX_TABLE_SIZE}")
    nodes, scaled = _scaled_rule(q, n + 2)
    rows = _scaled_laguerre_rows(n, nodes)
    values = (rows * scaled) @ rows.T
    values = (values + values.T) / 2
    values.flags.writeable = False
    return MomentTable(q=q, values=values)


def vandermonde_sqrt_integral_mc(n: int, samples: int, rng: RngStream) -> EstimatorResult:
    """Monte Carlo estimate of the integral of sqrt(mu1 mu2) e^{-sum mu}
    |Delta(mu)|^2 over the positive orthant.

    Samples each mu_j ~ Exponential(1) and averages
    sqrt(mu1 mu2) prod_{i<j} (mu_i - mu_j)^2. Capped at n = 4: the squared
    Vandermonde factor is heavy-tailed under exponential sampling and the
    estimator variance explodes beyond that.
    """
    _require_dim(n, 2)
    if n > _VANDERMONDE_MAX_DIM:
        raise ValueError(
            f"Monte Carlo route is limited to dimension <= {_VANDERMONDE_MAX_DIM}, got {n}")

    def values(b):  # elementwise, so slices of _UNIFORM_SLICE states keep the block's bits
        f = np.empty(b)
        for start in range(0, b, _UNIFORM_SLICE):
            mu = rng.exponential(min(_UNIFORM_SLICE, b - start) * n).reshape(-1, n)
            part = np.sqrt(mu[:, 0] * mu[:, 1], out=f[start:start + len(mu)])
            for i, j in zip(*np.triu_indices(n, 1)):  # row by row, as nested loops
                part *= (mu[:, i] - mu[:, j]) ** 2
        return f

    return _finish(_block_stats(lambda b: values(b)[None], samples, _block_states(n)))


def twofold_twirl(a, n: int) -> np.ndarray:
    """Closed form of the Haar average of (U x U) A (U x U)†.

    The average lands in span{identity, swap}; the coefficients are grouped
    as (n Tr A - Tr(AF)) / (n (n^2 - 1)) and its mirror so that identity and
    swap inputs are fixed points exactly, even in floating point.
    """
    a = np.asarray(a, dtype=complex)
    if n < 2:
        raise ValueError(f"local dimension must be >= 2, got {n}")
    if a.shape != (n * n, n * n):
        raise ValueError(f"expected a {n * n}x{n * n} matrix, got shape {a.shape}")
    f = swap_operator(n)
    tr_a, tr_af = np.trace(a), np.trace(a @ f)
    denom = n * (n * n - 1)
    coeff_id, coeff_swap = (n * tr_a - tr_af) / denom, (n * tr_af - tr_a) / denom
    return coeff_id * np.eye(n * n) + coeff_swap * f


def twofold_twirl_mc(a, n: int, samples: int, rng: RngStream) -> np.ndarray:
    """Brute-force Haar average of (U x U) A (U x U)† over sampled unitaries.

    One haar_unitary_batch call per block of _TWIRL_BLOCK unitaries fixes the RNG order. A
    block is folded in slices of the sampler's max(1, _UNIFORM_SLICE // d^2) unitaries, d = n^2,
    in three buffers of <= 2^16 entries for W = U x U, X and conj(W), laid out as W[r, c, b]
    (b the sample): X[:, :, b] = W_b A, then [X_1 ... X_b] [W_1†; ...; W_b†] = sum_b W_b A W_b†.
    """
    a = np.asarray(a, dtype=complex)
    d = n * n
    if a.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {a.shape}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    step, total = max(1, _UNIFORM_SLICE // (d * d)), np.zeros((d, d), dtype=complex)
    buffers = np.empty((3, d * d * min(step, samples)), dtype=complex)  # reused: no re-faults
    for b in _block_sizes(samples, _TWIRL_BLOCK):
        for part in np.split(haar_unitary_batch(rng, n, b), range(step, b, step)):
            ut = np.ascontiguousarray(part.transpose(1, 2, 0))
            w, x, w_conj = (buf[:d * d * ut.shape[2]].reshape(d, d, -1) for buf in buffers)
            np.multiply(ut[:, None, :, None], ut[None, :, None, :], out=w.reshape(n, n, n, n, -1))
            np.matmul(a.T, w, out=x)
            total += x.reshape(d, -1) @ np.conjugate(w, out=w_conj).reshape(d, -1).T
    return total / samples


def trace_sqrt_squared_mc(n: int, samples: int, rng: RngStream) -> EstimatorResult:
    """Monte Carlo mean of (Tr sqrt(rho))^2 over Hilbert-Schmidt random states."""
    _require_dim(n)

    def values(b):
        return np.concatenate([np.sqrt(_require_psd(hermitian_eigvalsh(states))).sum(axis=1) ** 2
                               for states in _hs_mixed_slices(rng, n, b)])

    return _finish(_block_stats(lambda b: values(b)[None], samples, _block_states(n * n)))
