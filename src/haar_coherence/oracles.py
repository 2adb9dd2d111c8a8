"""Independent verification engines.

Each quantity checked here is reachable by two unrelated routes: the
closed-form series and prefix-sum bracket against exact generalized
Gauss-Laguerre quadrature, the unitary twirl formula against brute-force Haar
averaging, and the spectral closed forms against Monte Carlo over the actual
samplers. The quadrature route never touches the series or bracket code.
"""

import math

import numpy as np

from .closed_forms import MomentTable, _require_table_size
from .estimators import (EstimatorResult, _block_sizes, _block_states, _block_stats, _finish,
                         _values)
from .linalg import _require_dim, _require_psd, hermitian_eigvalsh, swap_operator
from .sampling import _UNIFORM_SLICE, RngStream, _hs_mixed_slices, _orthonormalize

# Unitaries per normals draw of the twirl MC. Block boundaries fix where
# each draw splits the stream, so a different size moves the result.
_TWIRL_BLOCK = 4096

# Above this dimension the heavy-tailed Vandermonde integrand makes the plain
# Monte Carlo estimate useless at desk-scale sample counts.
_VANDERMONDE_MAX_DIM = 4


# _scaled_rows carries each node's value as m 2^s. Shifting m by exact powers
# of two changes no bit wherever nothing under- or overflows, and keeps |m|
# near or below 2^_SCALE_BITS however small e^{-x/2} gets.
_SCALE_BITS = 500


def _laguerre_nodes(alpha: float, n_nodes: int) -> np.ndarray:
    """Eigenvalues of the generalized Laguerre Jacobi matrix. LAPACK's dsyevd
    reduces this already tridiagonal matrix by zero reflectors, so its dsterf gets
    the diagonals scipy.linalg.eigh_tridiagonal passes: the same nodes, bit for bit, at
    any OpenBLAS thread count."""
    i = np.arange(n_nodes, dtype=float)
    return np.linalg.eigvalsh(np.diag(2 * i + alpha + 1)
                              + np.diag(np.sqrt(i[1:] * (i[1:] + alpha)), -1))


def _scaled_rows(alpha: float, n_rows: int, x: np.ndarray) -> np.ndarray:
    """(n_rows, len(x)) array whose row k is p_k(x) e^{-x/2}, p_k the orthonormal polynomials
    of the weight x^alpha e^{-x}: p_0 = Gamma(alpha + 1)^{-1/2} and b_k p_k = (x - a_{k-1})
    p_{k-1} - b_{k-1} p_{k-2}, a_k = 2k + alpha + 1, b_k = sqrt(k (k + alpha)).

    The scaling commutes with the linear recurrence and avoids the ~1e100
    magnitudes of the raw polynomials. At alpha = 0, a_k = 2k + 1 and
    b_k = sqrt(k k) = k are exact and IEEE arithmetic is odd in each sign, so
    the rows are (-1)^k L_k(x) e^{-x/2} bit for bit.
    """
    try:
        mu0 = math.exp(math.lgamma(alpha + 1.0))
    except OverflowError:
        raise ValueError(f"weight exponent {alpha} is too large: "
                         f"Gamma({alpha} + 1) overflows a double") from None
    # e^{-x/2} = m 2^s, m >= 2^-_SCALE_BITS and s <= 0, s = 0 wherever e^{-x/2} >= 2^-_SCALE_BITS;
    # at the largest node e^{-x/2} is subnormal from a 364-point rule on and 0 from 383 on.
    s = np.minimum(_SCALE_BITS - np.ceil(x / (2 * math.log(2.0))), 0.0).astype(np.intc)
    cur = np.exp(-x / 2 - s * math.log(2.0)) / math.sqrt(mu0)
    rows, prev, b_prev = np.empty((n_rows, x.size)), np.zeros_like(x), 0.0
    np.ldexp(cur, s, out=rows[0])
    for k in range(1, n_rows):
        b_cur = math.sqrt(k * (k + alpha))
        prev, cur = cur, ((x - (2 * (k - 1) + alpha + 1)) * cur - b_prev * prev) / b_cur
        # One dot product is the cheapest test per step; it exceeds the bound
        # whenever some |cur| > 2^_SCALE_BITS, and is inf or NaN if cur is.
        if not np.dot(cur, cur) <= 2.0 ** (2 * _SCALE_BITS):
            shift = np.where(np.abs(cur) > 2.0**_SCALE_BITS, -_SCALE_BITS, 0).astype(np.intc)
            prev, cur, s = np.ldexp(prev, shift), np.ldexp(cur, shift), s - shift
        np.ldexp(cur, s, out=rows[k])
        b_prev = b_cur
    return rows


def _scaled_rule(alpha: float, n_nodes: int):
    """Nodes plus weights premultiplied by e^{x}: the Christoffel weights
    1 / sum_k p_k(x)^2 e^{-x} of the orthonormal rows of _scaled_rows.

    Working in scaled space keeps every intermediate O(1); the raw weights at
    the largest nodes of a 100+ point rule are ~1e-220 and their eigenvector
    components underflow when squared. numpy sums a C-order array over axis 0
    row after row, so the sum rounds as a running one would.
    """
    if alpha <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {alpha}")
    nodes = _laguerre_nodes(alpha, n_nodes)
    rows = _scaled_rows(alpha, n_nodes, nodes)
    sums = np.square(rows, out=rows).sum(axis=0)
    # |L_k(x) e^{-x/2}| <= 1, so a moment table's entries, and their doubles, stay finite
    # while no scaled weight exceeds 1/(2 n_nodes) of the largest double; NaN fails too.
    if not sums.min() >= 2 * n_nodes / np.finfo(float).max:
        raise ValueError(f"weight exponent {alpha} is too large for {n_nodes} nodes: "
                         "the weights times e^x overflow a double")
    return nodes, 1.0 / sums


def gauss_laguerre_rule(alpha: float, n_nodes: int):
    """(nodes, weights) of the Golub-Welsch generalized Gauss-Laguerre rule for weight
    x^alpha e^{-x}, as numpy's laggauss returns them at alpha = 0.

    Nodes are the eigenvalues of the symmetric Jacobi matrix of the
    generalized Laguerre recurrence; the rule integrates polynomials up to
    degree 2 n_nodes - 1 exactly. Refuses alpha <= -1, and an alpha so
    large that the weights times e^x overflow a double.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    nodes, scaled = _scaled_rule(alpha, n_nodes)
    return nodes, scaled * np.exp(-nodes)


def quadrature_moment_table(n: int, q: float) -> MomentTable:
    """Full moment table for degrees 0..n-1 from one shared (n + 2)-node rule of weight
    x^q e^{-x}; refuses n above MAX_TABLE_SIZE, as the series does, before allocating, and
    q <= -1. Its L_k rows are the alpha = 0 rows of _scaled_rows with the odd ones negated."""
    _require_table_size(n)
    nodes, scaled = _scaled_rule(q, n + 2)
    rows = _scaled_rows(0.0, n, nodes)
    np.negative(rows[1::2], out=rows[1::2])
    values = (rows * scaled) @ rows.T
    values = (values + values.T) / 2
    values.flags.writeable = False
    return MomentTable(values=values)


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

    def values(b):  # elementwise, so slices of _UNIFORM_SLICE draws keep the block's bits
        f, step = np.empty(b), _UNIFORM_SLICE // n
        for start in range(0, b, step):
            mu = rng.exponential(min(step, b - start) * n).reshape(-1, n)
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

    One normals draw per block of _TWIRL_BLOCK unitaries fixes the RNG order. A block is drawn,
    orthonormalized and folded in slices of max(1, _UNIFORM_SLICE // d^2) unitaries, d = n^2, in
    three buffers of <= 2^16 entries for W = U x U, X (first the slice's normals) and conj(W),
    as W[r, c, b]: X[:, :, b] = W_b A, then [X_1 ... X_b] [W_1†; ...; W_b†] = sum_b W_b A W_b†."""
    a = np.asarray(a, dtype=complex)
    d = n * n
    if a.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got shape {a.shape}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    step, total = max(1, _UNIFORM_SLICE // (d * d)), np.zeros((d, d), dtype=complex)
    buffers = np.empty((3, d * d * min(step, samples)), dtype=complex)  # reused: no re-faults
    for b in _block_sizes(samples, _TWIRL_BLOCK):
        for g in rng._normals(b * d, step * d, buffers[1]):
            ut = np.ascontiguousarray(_orthonormalize(g.reshape(-1, n, n)).transpose(1, 2, 0))
            w, x, w_conj = (buf[:d * d * ut.shape[2]].reshape(d, d, -1) for buf in buffers)
            np.multiply(ut[:, None, :, None], ut[None, :, None, :], out=w.reshape(n, n, n, n, -1))
            np.matmul(a.T, w, out=x)
            total += x.reshape(d, -1) @ np.conjugate(w, out=w_conj).reshape(d, -1).T
    return total / samples


def trace_sqrt_squared_mc(n: int, samples: int, rng: RngStream) -> EstimatorResult:
    """Monte Carlo mean of (Tr sqrt(rho))^2 over Hilbert-Schmidt random states; each draw block
    fills one array of its values, a sampler slice at a time (estimators._values)."""
    _require_dim(n)
    task = _values(lambda streams, b: _hs_mixed_slices(streams, n, b),
                   lambda states: np.sqrt(_require_psd(hermitian_eigvalsh(states))).sum(1) ** 2)
    return _finish(_block_stats(lambda b: task([rng], b), samples, _block_states(n * n)))
