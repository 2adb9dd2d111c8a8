"""Skew information and coherence measures relative to the computational basis."""

import numpy as np

from .linalg import _require_hermitian, sqrt_psd

# Round-off slack on the admissible coherence range [0, 1 - 1/N].
_RANGE_SLACK = 1e-10
_DIAG_IMAG_TOL = 1e-12


def _dot(x) -> np.ndarray:
    # x @ x along the last axis; a stack runs the same BLAS dot per member
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def _as_coherence(value: np.ndarray, dim: int):
    upper = 1.0 - 1.0 / dim
    outside = ~((value >= -_RANGE_SLACK) & (value <= upper + _RANGE_SLACK))
    if outside.any():
        raise ValueError(
            f"coherence {float(value[outside][0])!r} outside [0, {upper}] for dimension {dim}")
    value = np.maximum(value, 0.0)
    return float(value) if value.ndim == 0 else value


def sqrt_diagonal(rho) -> np.ndarray:
    """Diagonal <k|sqrt(rho)|k> as a real vector, or (..., n) for a stack.

    The imaginary parts must vanish (below 1e-12); they are checked rather
    than silently dropped.
    """
    diag = np.diagonal(sqrt_psd(rho), axis1=-2, axis2=-1)
    if diag.size and not np.abs(diag.imag).max() < _DIAG_IMAG_TOL:
        raise ValueError("sqrt(rho) diagonal has a non-negligible imaginary part")
    return diag.real.copy()


def skew_information(rho, k):
    """Skew information of a state with respect to an observable.

    Equals Tr(K^2 rho) - Tr(sqrt(rho) K sqrt(rho) K); zero exactly when rho
    and K commute, and the variance of K when rho is pure. (..., n, n) stacks
    of states and observables broadcast and give an array.
    """
    rho = np.asarray(rho, dtype=complex)
    k = np.asarray(k, dtype=complex)
    if rho.shape[-2:] != k.shape[-2:]:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs observable {k.shape}")
    root = sqrt_psd(rho)
    rk = root @ k
    value = (np.trace(k @ k @ rho, axis1=-2, axis2=-1)
             - np.trace(rk @ rk, axis1=-2, axis2=-1)).real
    value = np.where(value > -_RANGE_SLACK, np.maximum(value, 0.0), value)
    return float(value) if value.ndim == 0 else value


def skew_coherence(rho):
    """Coherence of a density matrix: 1 - sum_k <k|sqrt(rho)|k>^2.

    Equals the sum of skew informations against all basis projectors and lies
    in [0, 1 - 1/N], with the maximum attained by uniform-amplitude states.
    An (..., N, N) stack gives an array and raises if any member is invalid.
    """
    diag = sqrt_diagonal(rho)
    return _as_coherence(1.0 - _dot(diag), diag.shape[-1])


def skew_coherence_pure(psi):
    """Coherence of a pure state, 1 - sum_k |psi_k|^4; an (..., N) stack gives an array."""
    psi = np.asarray(psi, dtype=complex)
    p = np.abs(psi) ** 2
    if not (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all():
        raise ValueError("state vector is not normalized")
    return _as_coherence(1.0 - _dot(p), psi.shape[-1])


def _xlogx(x) -> np.ndarray:
    """x log x, 0 at x = 0; scipy loads on first use, as only rel-ent needs it."""
    from scipy.special import xlogy
    return xlogy(x, x)


def relative_entropy_coherence(rho):
    """Relative entropy of coherence S(diag rho) - S(rho), natural log.

    0 log 0 is taken as 0. Zero for diagonal states; for pure states this is
    the Shannon entropy of the basis populations. rho must be exactly
    Hermitian; an (..., N, N) stack gives an array.
    """
    rho = np.asarray(rho, dtype=complex)
    _require_hermitian(rho, "density matrix")
    spectrum = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    populations = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    value = np.maximum(_xlogx(spectrum).sum(axis=-1) - _xlogx(populations).sum(axis=-1), 0.0)
    return float(value) if value.ndim == 0 else value
