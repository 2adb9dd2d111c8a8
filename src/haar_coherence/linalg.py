"""Dense complex linear algebra kernel: closed-form small-n spectra, PSD
square root, partial trace and the swap operator."""

import numpy as np

# Eigenvalues in [-EIG_CLAMP, 0) are round-off from sampled Gram matrices and
# are clamped to zero; anything below is treated as genuinely not PSD.
EIG_CLAMP = 1e-10

# Eigenvalues below REL_CLAMP * max(spectrum) are eigensolver round-off on
# rank-deficient input (a pure-state projector has null-space noise ~1e-16
# whose square root would pollute sqrt(rho) at the 1e-8 level). Zeroing them
# keeps sqrt_psd of a projector exact to machine precision.
REL_CLAMP = 1e-13


def _require_dim(n: int, least: int = 1):
    if n < least:
        raise ValueError(f"dimension must be >= {least}, got {n}")


def hermitian_part(m) -> np.ndarray:
    """Return (M + M†)/2 for a matrix or an (..., n, n) stack, exactly Hermitian."""
    m = np.asarray(m, dtype=complex)
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def _require_hermitian(m, what="matrix"):
    """m, if it is an exactly Hermitian matrix or (..., n, n) stack; else ValueError."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    # Exact equality; construction paths symmetrize with hermitian_part.
    # array_equal is False for NaN entries, so this also rejects non-finite input.
    if not np.array_equal(m, np.swapaxes(m.conj(), -1, -2)):
        raise ValueError(f"{what} is not exactly Hermitian; symmetrize with hermitian_part first")
    return m


def _eigvalsh_2(m):
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    mean = (a + d) / 2
    radius = np.hypot((a - d) / 2, np.abs(m[..., 1, 0]))
    return np.stack([mean - radius, mean + radius], axis=-1)


def _eigvalsh_3(m):
    # B = (M - qI)/p with q = Tr M / 3 and p^2 = Tr (M - qI)^2 / 6 has the
    # eigenvalues 2 cos(phi + 2 pi k/3), phi = arccos(det B / 2) / 3 in
    # [0, pi/3] (O. K. Smith, CACM 4 (1961) 168). Only the eigenvalue farther
    # from the other two is taken from this formula: the closer pair moves by
    # ~sqrt(eps) when det B / 2 is near +-1. With C = B - iso I of rank 2 and
    # t = Tr C, P = (t C - C^2) / e2 projects onto the range of C (e2 is the
    # product of its two nonzero eigenvalues), and G = C - (t/2) P has the
    # eigenvalues 0 and +-g, the pair's half gap, to round-off in its entries.
    # The isolated eigenvalue lies at least sqrt(3) p from the pair, so the
    # result is ascending without sorting.

    # contiguous copies: arithmetic on the strided entries is ~4x slower
    diag = [m[..., i, i].real.copy() for i in range(3)]
    x, y, z = (m[..., i, j].copy() for i, j in ((1, 0), (2, 0), (2, 1)))
    q = (diag[0] + diag[1] + diag[2]) / 3
    b0, b1, b2 = (d - q for d in diag)
    xx, yy, zz = (w.real * w.real + w.imag * w.imag for w in (x, y, z))
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2 * (xx + yy + zz)) / 6)
    # p == 0 only for M = qI, where B is taken as 0; a NaN p stays NaN
    scale = np.where(p == 0, 1.0, p)
    inv = 1 / scale
    b0, b1, b2, x, y, z = (w * inv for w in (b0, b1, b2, x, y, z))
    xx, yy, zz = (w.real * w.real + w.imag * w.imag for w in (x, y, z))
    det = b0 * b1 * b2 - b0 * zz - b1 * yy - b2 * xx + 2 * (x * z * y.conj()).real
    half = np.clip(det / 2, -1.0, 1.0)
    phi = np.arccos(half) / 3
    # the top eigenvalue is the isolated one for det B >= 0, else the bottom one
    top = half >= 0
    iso = 2 * np.cos(np.where(top, phi, phi + 2 * np.pi / 3))
    c0, c1, c2 = b0 - iso, b1 - iso, b2 - iso
    t = c0 + c1 + c2
    e2 = (t * t - c0 * c0 - c1 * c1 - c2 * c2) / 2 - xx - yy - zz
    alpha, beta = 1 - t * t / (2 * e2), t / (2 * e2)
    g00 = alpha * c0 + beta * (c0 * c0 + xx + yy)
    g11 = alpha * c1 + beta * (c1 * c1 + xx + zz)
    g22 = alpha * c2 + beta * (c2 * c2 + yy + zz)
    g10 = alpha * x + beta * (x * (c0 + c1) + y * z.conj())
    g20 = alpha * y + beta * (y * (c0 + c2) + x * z)
    g21 = alpha * z + beta * (z * (c1 + c2) + y * x.conj())
    off = sum(w.real * w.real + w.imag * w.imag for w in (g10, g20, g21))
    gap = np.sqrt((g00 * g00 + g11 * g11 + g22 * g22) / 2 + off)
    mean = iso + t / 2
    low = q + p * np.where(top, mean - gap, iso)
    mid = q + p * np.where(top, mean + gap, mean - gap)
    high = q + p * np.where(top, iso, mean + gap)
    return np.stack([low, mid, high], axis=-1)


def hermitian_eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian (..., n, n) stack.

    Orders 2 and 3 are solved in closed form from the real diagonal and the
    lower triangle (the triangle np.linalg.eigvalsh reads): n = 2 as
    mean -/+ hypot, n = 3 by Smith's trigonometric formula for the isolated
    eigenvalue and a rank-2 deflation for the other two, which keeps
    near-degenerate pairs accurate to round-off. On stacks of such tiny
    matrices LAPACK's per-matrix call overhead, not arithmetic, is the cost.
    Other orders go to np.linalg.eigvalsh. Up to n = 3 a NaN entry gives NaN
    eigenvalues; LAPACK returns finite ones for some larger NaN matrices.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[-1]
    if n not in (2, 3):
        return np.linalg.eigvalsh(m)
    kernel = _eigvalsh_2 if n == 2 else _eigvalsh_3
    return kernel(m.reshape(-1, n, n)).reshape(m.shape[:-1])


def _require_psd(values, relative=False):
    """Ascending spectrum or (..., n) stack clipped at 0, and with `relative` each eigenvalue
    below REL_CLAMP times the largest zeroed; ValueError below -EIG_CLAMP or on NaN."""
    smallest = values[..., 0].min(initial=0.0)
    if not smallest >= -EIG_CLAMP:
        raise ValueError(
            f"matrix is not PSD: smallest eigenvalue {smallest:.3e} is below {-EIG_CLAMP:.0e}")
    values = np.clip(values, 0.0, None)
    if relative:
        values[values < REL_CLAMP * values[..., -1:]] = 0.0
    return values


def _psd_root_spectrum(rho):
    """Roots of the clamped eigenvalues of a PSD matrix or (..., n, n) stack,
    with the eigenvectors: sqrt(rho) = V diag(root) V†.

    Eigenvalues in [-EIG_CLAMP, 0) and eigenvalues below REL_CLAMP times the
    largest one are clamped to zero before taking roots. Raises ValueError if
    rho is not exactly Hermitian or any eigenvalue is NaN or below -EIG_CLAMP.
    """
    rho = _require_hermitian(np.asarray(rho, dtype=complex))
    try:
        values, vectors = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        n = rho.shape[-1]
        raise np.linalg.LinAlgError(
            f"Hermitian eigensolver did not converge on a {n}x{n} matrix") from exc
    return np.sqrt(_require_psd(values, relative=True)), vectors


def sqrt_psd(rho) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix via eigendecomposition.

    The eigenvalues are clamped and checked as in _psd_root_spectrum. An
    (..., n, n) stack gives each member's single-matrix result and raises if
    any member is not PSD.
    """
    root, vectors = _psd_root_spectrum(rho)
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
    _require_dim(n)
    return np.eye(n * n).reshape(n, n, n, n).swapaxes(2, 3).reshape(n * n, n * n)
