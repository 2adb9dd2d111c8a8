"""Skew information and coherence measures relative to the computational basis."""

import numpy as np

from .linalg import (_psd_root_spectrum, _require_hermitian, _require_psd, hermitian_eigvalsh,
                     sqrt_psd)
from .sampling import _column_sum

# Round-off slack on the admissible coherence range [0, 1 - 1/N].
_RANGE_SLACK = 1e-10


def _skew(d):
    """1 - sum_k d_k^2 over the last axis: the coherence of a state whose
    sqrt(rho) has the diagonal d (for a pure state, its populations).

    Raises ValueError if a value, NaN included, lies outside [0, 1 - 1/N]
    beyond round-off; values just below 0 are clamped to 0.
    """
    value = 1.0 - _column_sum(d * d)
    dim = d.shape[-1]
    upper = 1.0 - 1.0 / dim
    # min and max are NaN when any value is, so NaN fails the range test
    low, high = value.min(initial=0.0), value.max(initial=0.0)
    if not (low >= -_RANGE_SLACK and high <= upper + _RANGE_SLACK):
        outside = ~((value >= -_RANGE_SLACK) & (value <= upper + _RANGE_SLACK))
        raise ValueError(
            f"coherence {float(value[outside][0])!r} outside [0, {upper}] for dimension {dim}")
    if low < 0:
        value = np.maximum(value, 0.0)
    return float(value) if value.ndim == 0 else value


def _shannon(x):
    """Shannon entropy -sum_k x_k log x_k over the last axis, natural log, with
    0 log 0 = 0. Raises ValueError on a NaN entry."""
    value = -(x * np.log(x, out=np.zeros_like(x), where=x != 0)).sum(axis=-1)
    if np.isnan(value).any():
        raise ValueError("entropy of a probability vector with a NaN entry")
    return value


def sqrt_diagonal(rho) -> np.ndarray:
    """Diagonal <k|sqrt(rho)|k> as a real vector, or (..., n) for a stack, the eigenvalues w_a
    of rho clamped and checked as in sqrt_psd. At n = 2, (rho_kk + sqrt(w_1 w_2))/(sqrt(w_1) +
    sqrt(w_2)) over the closed-form w, a clamped w_1 taken out of rho_kk (0 if both are): no
    LAPACK, exact at rank 1. Else sum_a |v_ka|^2 sqrt(w_a) over the eigenpairs (w_a, v_a) of eigh."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        root, vectors = _psd_root_spectrum(rho)
        return np.einsum("...ka,...a->...k", np.abs(vectors) ** 2, root)
    values = hermitian_eigvalsh(_require_hermitian(rho))
    low, high = np.split(np.sqrt(_require_psd(values, relative=True)), 2, axis=-1)
    diagonal = np.diagonal(rho, axis1=-2, axis2=-1).real - np.where(low > 0, 0.0, values[..., :1])
    return np.divide(diagonal + low * high, low + high, out=np.zeros_like(diagonal), where=high > 0)


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
    return _skew(sqrt_diagonal(rho))


def skew_coherence_pure(psi):
    """Coherence of a pure state, 1 - sum_k |psi_k|^4; an (..., N) stack gives an array."""
    psi = np.asarray(psi, dtype=complex)
    p = np.abs(psi) ** 2
    if not (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all():
        raise ValueError("state vector is not normalized")
    return _skew(p)


def relative_entropy_coherence(rho):
    """Relative entropy of coherence S(diag rho) - S(rho), natural log.

    0 log 0 is taken as 0. Zero for diagonal states; for pure states this is
    the Shannon entropy of the basis populations. rho must be exactly
    Hermitian and PSD up to EIG_CLAMP, else ValueError; an (..., N, N) stack
    gives an array and raises if any member is invalid.
    """
    rho = _require_hermitian(np.asarray(rho, dtype=complex), "density matrix")
    spectrum = _require_psd(np.linalg.eigvalsh(rho))
    populations = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    value = np.maximum(_shannon(populations) - _shannon(spectrum), 0.0)
    return float(value) if value.ndim == 0 else value
