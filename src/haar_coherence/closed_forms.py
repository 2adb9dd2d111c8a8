"""Closed-form expressions: Laguerre weighted moments, ensemble-average
coherence, concentration bounds and the comparison averages.

The mixed-state average is driven by the symmetric table of weighted Laguerre
moments

    I_kl(q) = integral of L_k(x) L_l(x) x^q e^{-x} over [0, inf),

evaluated here by its closed-form series. The series route is independently
cross-checked against the quadrature route in :mod:`haar_coherence.oracles`;
`avg_coherence_mixed` refuses to return a value if the two routes disagree.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _require_dim

# Exponent denominator 9 pi^3 ln 2 of the sphere concentration bound. On
# S^{2n-1} with the Lipschitz constants 4/n (pure) and 4 (mixed) it gives the
# tail bounds' exponents n^3 eps^2 and n eps^2 over 72 pi^3 ln 2.
_LEVY_DENOM = 9.0 * math.pi**3 * math.log(2.0)

# Maximum tolerated series-vs-quadrature disagreement per table entry.
MOMENT_GATE = 1e-9

# Largest series moment table (degrees 0..n-1). The series-vs-quadrature gap
# is 4.9e-11 here, 20x inside MOMENT_GATE; the series costs O(n^3), ~11 s at
# this size on one x86-64 core, and minutes at a few thousand.
MAX_TABLE_SIZE = 1024


class PrecisionError(RuntimeError):
    """Two independent evaluation routes disagreed beyond tolerance."""


@dataclass(frozen=True)
class MomentTable:
    """Symmetric table of weighted Laguerre moments."""

    q: float
    values: np.ndarray  # (n, n), values[k, l] = I_kl(q)


def _gen_binomial_array(q: float, m: int) -> np.ndarray:
    b = np.empty(m + 1)
    b[0] = 1.0
    for i in range(m):
        b[i + 1] = b[i] * (q - i) / (i + 1)
    return b


def _gamma_ratios(q: float, m: int) -> np.ndarray:
    # Gamma(q + r + 1) / r! for r = 0..m-1, in log space: the ratio overflows
    # a double near degree 170 otherwise. libm's exp and lgamma pin the bits.
    return np.array([math.exp(math.lgamma(q + r + 1.0) - math.lgamma(r + 1.0))
                     for r in range(m)])


def _moment_row(k: int, l: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I_kl(q) for each degree in the array l (all >= k), from b[m] = binom(q, m)
    and g[r] = Gamma(q+r+1)/r!.

    Entry l is (-1)^(k+l) times the sum of (b[k-r] b[l-r]) g[r] over r = 0..k.
    Each sum is an fsum, which keeps the alternating series accurate at large
    degrees; being correctly rounded, it also makes every entry independent of
    the order the terms are visited in.
    """
    r = np.arange(k + 1)
    terms = (b[k - r] * b[np.subtract.outer(l, r)]) * g[r]
    sums = np.array([math.fsum(t.tolist()) for t in terms])
    return np.where((k + l) % 2, -sums, sums)


def moment_table(n: int, q: float) -> MomentTable:
    """Symmetric n x n moment table for degrees 0..n-1, from the series.

    Refuses n above MAX_TABLE_SIZE before allocating anything: the series
    costs O(n^3) and the table O(n^2) memory.
    """
    if n < 1:
        raise ValueError(f"table size must be >= 1, got {n}")
    if n > MAX_TABLE_SIZE:
        raise ValueError(f"table size {n} exceeds the supported maximum {MAX_TABLE_SIZE}")
    if q <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {q}")
    b = _gen_binomial_array(q, n - 1)
    g = _gamma_ratios(q, n)
    values = np.empty((n, n))
    for k in range(n):
        row = _moment_row(k, np.arange(k, n), b, g)
        values[k, k:] = row
        values[k:, k] = row
    values.flags.writeable = False
    return MomentTable(q=q, values=values)


@lru_cache(maxsize=None)
def validated_half_moment_table(n: int) -> MomentTable:
    """q = 1/2 series table, gated against the independent quadrature route.

    Raises PrecisionError if any entry differs by more than MOMENT_GATE; a
    silently wrong table would poison every mixed-ensemble average built on it.
    """
    from . import oracles  # function-level import breaks the module cycle

    series = moment_table(n, 0.5)
    quadrature = oracles.quadrature_moment_table(n, 0.5)
    gap = float(np.abs(series.values - quadrature.values).max())
    if not gap <= MOMENT_GATE:  # NaN fails too
        raise PrecisionError(
            f"moment table routes disagree by {gap:.3e} (gate {MOMENT_GATE:.0e}) at n={n}")
    return series


def moment_bracket(values: np.ndarray) -> float:
    """(sum_k I_kk)^2 - sum_{k,l} I_kl^2 with compensated summation."""
    diag = math.fsum(np.diagonal(values))
    # float_power squares through libm's pow, as Python's ** on a float does;
    # `values**2` multiplies instead and rounds ~0.1% of entries differently.
    squares = math.fsum(np.float_power(values, 2.0).ravel())
    return diag * diag - squares


def avg_coherence_pure(n: int) -> float:
    """Average coherence of Haar-random pure states: (n - 1)/(n + 1)."""
    _require_dim(n)
    return (n - 1) / (n + 1)


def avg_coherence_mixed(n: int) -> float:
    """Average coherence of Hilbert-Schmidt random mixed states.

    Evaluates 1 - (2 + bracket/n^2)/(n + 1) from the q = 1/2 moment table over
    degrees 0..n-1, checked against the quadrature oracle first.
    """
    _require_dim(n)
    if n == 1:
        return 0.0
    table = validated_half_moment_table(n)
    return 1.0 - (2.0 + moment_bracket(table.values) / n**2) / (n + 1)


def vandermonde_sqrt_integral(n: int) -> float:
    """Closed form of the integral of sqrt(mu1 mu2) e^{-sum mu} |Delta(mu)|^2
    over the positive orthant: (n-2)! prod_j Gamma(j)^2 times the moment
    bracket of the q = 1/2 table."""
    _require_dim(n, 2)
    log_prefactor = math.lgamma(n - 1) + 2.0 * math.fsum(math.lgamma(j) for j in range(1, n + 1))
    return math.exp(log_prefactor) * moment_bracket(validated_half_moment_table(n).values)


def trace_sqrt_squared_average(n: int) -> float:
    """Spectral average of (Tr sqrt(rho))^2 over the Hilbert-Schmidt ensemble:
    1 + bracket/n^2."""
    _require_dim(n)
    if n == 1:
        return 1.0
    return 1.0 + moment_bracket(validated_half_moment_table(n).values) / n**2


def max_coherence(n: int) -> float:
    """Largest attainable coherence in dimension n: 1 - 1/n."""
    _require_dim(n)
    return 1.0 - 1.0 / n


def pure_average_gap(n: int) -> float:
    """Gap between the maximal and the average pure-state coherence,
    (1 - 1/n) - (n-1)/(n+1), in its cancellation-free form (n-1)/(n(n+1))."""
    _require_dim(n)
    return (n - 1) / (n * (n + 1))


def levy_bound(sphere_dim: int, epsilon: float, lipschitz: float) -> float:
    """Sphere concentration bound 2 exp(-(k+1) eps^2 / (9 pi^3 eta^2 ln 2))."""
    if sphere_dim < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {sphere_dim}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if lipschitz <= 0:
        raise ValueError(f"lipschitz constant must be > 0, got {lipschitz}")
    return 2.0 * math.exp(-(sphere_dim + 1) * epsilon**2 / (_LEVY_DENOM * lipschitz**2))


def tail_bound_pure(n: int, epsilon: float) -> float:
    """Pure-state tail bound 2 exp(-n^3 eps^2 / (72 pi^3 ln 2)): the sphere
    bound on S^{2n-1} with the pure-state Lipschitz constant 4/n."""
    _require_dim(n, 2)
    return levy_bound(2 * n - 1, epsilon, lipschitz_constant_pure(n))


def tail_bound_mixed(n: int, epsilon: float) -> float:
    """Mixed-state tail bound 2 exp(-n eps^2 / (72 pi^3 ln 2)): the sphere
    bound on S^{2n-1} with the reduced-state Lipschitz constant."""
    _require_dim(n, 2)
    return levy_bound(2 * n - 1, epsilon, lipschitz_constant_mixed())


def coherent_subspace_dim(n: int, epsilon: float) -> int:
    """Dimension floor((n^3 eps^2 - 1) / (3095 (3 - ln(eps n)))) of a subspace
    whose pure states almost always carry near-typical coherence.

    Only defined for 0 < eps < 1/n. A non-positive numerator clamps to 0,
    since a subspace dimension cannot be negative.
    """
    _require_dim(n, 2)
    if not 0.0 < epsilon < 1.0 / n:
        raise ValueError(f"epsilon must lie in (0, 1/{n}), got {epsilon}")
    numerator = n**3 * epsilon**2 - 1.0
    if numerator <= 0.0:
        return 0
    return int(math.floor(numerator / (3095.0 * (3.0 - math.log(epsilon * n)))))


def lipschitz_constant_pure(n: int) -> float:
    """Lipschitz scale 4/n used by the pure-state concentration bound."""
    _require_dim(n)
    return 4.0 / n


def lipschitz_constant_mixed() -> float:
    """Dimension-independent Lipschitz constant 4 for the reduced-state map."""
    return 4.0


def avg_cr_pure(n: int) -> float:
    """Average relative entropy of coherence of pure states: H_n - 1."""
    _require_dim(n)
    return math.fsum(1.0 / k for k in range(1, n + 1)) - 1.0


def avg_cr_mixed(n: int) -> float:
    """Average relative entropy of coherence of mixed states: (n - 1)/(2n)."""
    _require_dim(n)
    return (n - 1) / (2 * n)

