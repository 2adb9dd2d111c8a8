"""Dense complex linear algebra kernel: Hermitian eigendecomposition, PSD
square root, partial trace, Hilbert-Schmidt norm and the swap operator."""

from typing import NamedTuple

import numpy as np

# Eigenvalues in [-EIG_CLAMP, 0) are round-off from sampled Gram matrices and
# are clamped to zero; anything below is treated as genuinely not PSD.
EIG_CLAMP = 1e-10

# Eigenvalues below REL_CLAMP * max(spectrum) are eigensolver round-off on
# rank-deficient input (a pure-state projector has null-space noise ~1e-16
# whose square root would pollute sqrt(rho) at the 1e-8 level). Zeroing them
# keeps sqrt_psd of a projector exact to machine precision.
REL_CLAMP = 1e-13


class Eigensystem(NamedTuple):
    values: np.ndarray   # real, ascending
    vectors: np.ndarray  # unitary, eigenvectors in columns


def hermitian_part(m) -> np.ndarray:
    """Return (M + M†)/2 for a matrix or an (..., n, n) stack, exactly Hermitian."""
    m = np.asarray(m, dtype=complex)
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def _require_hermitian(m, what="matrix"):
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    # Exact equality; construction paths symmetrize with hermitian_part.
    # array_equal is False for NaN entries, so this also rejects non-finite input.
    if not np.array_equal(m, np.swapaxes(m.conj(), -1, -2)):
        raise ValueError(f"{what} is not exactly Hermitian; symmetrize with hermitian_part first")


def eig_hermitian(m) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix or (..., n, n) stack, ascending."""
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        n = m.shape[-1]
        raise np.linalg.LinAlgError(
            f"Hermitian eigensolver did not converge on a {n}x{n} matrix") from exc
    return Eigensystem(values, vectors)


def sqrt_psd(rho) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix via eigendecomposition.

    Eigenvalues in [-EIG_CLAMP, 0) and eigenvalues below REL_CLAMP times the
    largest one are clamped to zero before taking roots. Raises ValueError if
    an eigenvalue lies below -EIG_CLAMP. An (..., n, n) stack gives each
    member's single-matrix result and raises if any member is not PSD.
    """
    values, vectors = eig_hermitian(rho)
    smallest = values[..., 0].min()
    if smallest < -EIG_CLAMP:
        raise ValueError(
            f"matrix is not PSD: smallest eigenvalue {smallest:.3e} is below {-EIG_CLAMP:.0e}")
    values = np.clip(values, 0.0, None)
    values[values < REL_CLAMP * values[..., -1:]] = 0.0
    root = np.sqrt(values)
    return hermitian_part((vectors * root[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2))


def partial_trace_b(rho_ab, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second tensor factor of a matrix or a (..., d, d) stack.

    The composite index convention is subsystem-A major: i = k * dim_b + l for
    |k>_A |l>_B. Trace and Hermiticity are preserved exactly (the contraction
    only re-associates sums).
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    d = dim_a * dim_b
    if rho_ab.shape[-2:] != (d, d):
        raise ValueError(
            f"expected a {d}x{d} matrix for dim_a={dim_a}, dim_b={dim_b}, got shape {rho_ab.shape}")
    factored = rho_ab.reshape(rho_ab.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return np.einsum("...albl->...ab", factored)


def swap_operator(n: int) -> np.ndarray:
    """Swap operator F on an n*n tensor product: F|i,j> = |j,i>."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    f = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            f[i * n + j, j * n + i] = 1.0
    return f


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr M† M)."""
    return float(np.linalg.norm(np.asarray(m)))


def check_density_matrix(rho, trace_tol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return the array."""
    rho = np.asarray(rho, dtype=complex)
    _require_hermitian(rho, "density matrix")
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > trace_tol * max(1.0, abs(trace)):
        raise ValueError(f"density matrix trace {trace!r} is not 1 within {trace_tol:g}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -EIG_CLAMP:
        raise ValueError(f"density matrix has eigenvalue {smallest:.3e} below {-EIG_CLAMP:.0e}")
    return rho
