"""Closed-form expressions: Laguerre weighted moments, ensemble-average
coherence, concentration bounds and the comparison averages.

The mixed-state average is driven by the symmetric table of weighted Laguerre
moments

    I_kl(q) = integral of L_k(x) L_l(x) x^q e^{-x} over [0, inf),

through its q = 1/2 bracket (sum_k I_kk)^2 - sum_kl I_kl^2, taken from prefix sums; `moment_table`
gives the table itself by its series. Each is cross-checked against the quadrature route in
:mod:`haar_coherence.oracles`; `avg_coherence_mixed` returns no value where the brackets disagree.
"""

import itertools
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

BRACKET_GATE = 1e-12  # maximum tolerated relative gap between the two bracket routes

# Largest moment table (degrees 0..n-1) of either route, and so the largest N of the mixed
# closed forms: their bracket's gate needs the quadrature table (gap <= 7.0e-15 relative). The
# series (gap 4.9e-11, 20x inside MOMENT_GATE) costs O(n^3), ~7.7 s at this n on an x86-64 core.
MAX_TABLE_SIZE = 1024


class PrecisionError(RuntimeError):
    """Two independent evaluation routes disagreed beyond tolerance."""


@dataclass(frozen=True)
class MomentTable:
    """Symmetric table of weighted Laguerre moments."""

    values: np.ndarray  # (n, n), values[k, l] = I_kl(q)


def _require_table_size(n: int) -> None:
    """Refuse a moment table of degrees 0..n-1 outside 1 <= n <= MAX_TABLE_SIZE, either route's."""
    if n < 1:
        raise ValueError(f"table size must be >= 1, got {n}")
    if n > MAX_TABLE_SIZE:
        raise ValueError(f"table size {n} exceeds the supported maximum {MAX_TABLE_SIZE}")


@np.errstate(over="raise")
def moment_table(n: int, q: float) -> MomentTable:
    """Symmetric n x n moment table for degrees 0..n-1, from the series.

    Entry (k, l) is (-1)^(k+l) times math.fsum of (b[k-r] b[l-r]) g[r] over r = 0..k, with
    b[m] = binom(q, m) and g[r] = Gamma(q+r+1)/r!: summed exactly and rounded once, which
    keeps the alternating series accurate at large degrees. Rows run from the top degree
    down, where an overflow shows, so an exponent too large is refused in the first row.

    Refuses n above MAX_TABLE_SIZE before allocating anything: the series
    costs O(n^3) and the table O(n^2) memory.
    """
    _require_table_size(n)
    if q <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {q}")
    try:  # Gamma(q + r + 1)/r!, a term or an entry's fsum overflowing a double
        # g[r] = Gamma(q + r + 1)/r! in log space, as it overflows a double near degree 170
        # otherwise; libm's exp and lgamma pin the bits. b[m] = binom(q, m) by its recurrence.
        g = np.array([math.exp(math.lgamma(q + r + 1.0) - math.lgamma(r + 1.0)) for r in range(n)])
        b = np.ones(n)
        for i in range(n - 1):
            b[i + 1] = b[i] * (q - i) / (i + 1)
        # window[x, r] = b[x - r] for r <= x: a strided view of b behind n - 1 zeros
        window = np.ndarray((n, n), buffer=np.concatenate([np.zeros(n - 1), b]),
                            offset=8 * (n - 1), strides=(8, -8))
        values = np.empty((n, n))
        for k in range(n - 1, -1, -1):  # highest degrees first, where an overflow shows
            pairs = window[k:, :k + 1]  # pairs[l - k, r] = b[l - r]; row 0: b[k - r]
            products = pairs[:1] * pairs * g[:k + 1]
            row = np.array([math.fsum(terms.tolist()) for terms in products])
            np.negative(row[1::2], out=row[1::2])
            values[k, k:] = values[k:, k] = row
    except (OverflowError, FloatingPointError):
        raise ValueError(f"weight exponent q = {q} is too large for degree {n - 1}: "
                         "the series overflows a double") from None
    values.flags.writeable = False
    return MomentTable(values=values)


def moment_bracket(values: np.ndarray) -> float:
    """(sum_k I_kk)^2 - sum_{k,l} I_kl^2, each sum exact and rounded once by math.fsum."""
    diag = math.fsum(np.diagonal(values).tolist())
    # float_power squares through libm's pow, as Python's ** on a float does;
    # `values**2` multiplies instead and rounds ~0.1% of entries differently.
    squares = math.fsum(itertools.chain.from_iterable(
        np.float_power(row, 2.0).tolist() for row in values))
    return diag * diag - squares


@lru_cache(maxsize=None)
def half_moment_bracket(n: int) -> float:
    """Bracket (sum_k I_kk)^2 - sum_kl I_kl^2 of the q = 1/2 table, degrees < n, as pi Q in O(n^2).

    By moment_table's series with g = sqrt(pi) g~, Q = (sum_r g~_r c_rr)^2 - sum_rs g~_r g~_s c_rs^2
    with c_rs = sum_k b_{k-r} b_{k-s} over k >= max(r, s): on the diagonal |r - s| = d, a reversed
    prefix sum of b_j b_{j+d}. b_j = binom(1/2, j) and g~_r are exact dyadic rationals rounded
    once; products, cumsum and fsum fix the bits on any SIMD class or BLAS build. Raises
    PrecisionError unless within BRACKET_GATE, relative, of the quadrature bracket; NaN fails."""
    from . import oracles  # function-level import breaks the module cycle
    reference = moment_bracket(oracles.quadrature_moment_table(n, 0.5).values)  # refuses n first
    # b_j = (-1)^(j+1) 2 C(2j-2, j-1)/(j 4^j), g~_j = (2j+1) C(2j, j)/2^(2j+1), from Python ints
    b, g, central = np.ones(n), np.full(n, 0.5), 1  # central = C(2j-2, j-1), then C(2j, j)
    for j in range(1, n):
        b[j] = (-1) ** (j + 1) * 2 * central / (j * 4**j)
        central = central * 2 * (2 * j - 1) // j
        g[j] = (2 * j + 1) * central / 2 ** (2 * j + 1)
    trace = math.fsum((g * np.cumsum(b * b)[::-1]).tolist())
    squares = math.fsum((2 if d else 1) * math.fsum((g[:n - d] * g[d:] * c**2).tolist())
                        for d in range(n) for c in [np.cumsum(b[:n - d] * b[d:])[::-1]])
    bracket = math.pi * (trace * trace - squares)
    if not abs(bracket - reference) <= BRACKET_GATE * abs(reference):
        raise PrecisionError(f"bracket routes disagree at n={n}: prefix sums {bracket!r}, "
                             f"quadrature {reference!r}, gap {abs(bracket - reference):.3e}")
    return bracket


validated_half_moment_table = half_moment_bracket  # old name, read by perfbench's traced mode


def avg_coherence_pure(n: int) -> float:
    """Average coherence of Haar-random pure states: (n - 1)/(n + 1)."""
    _require_dim(n)
    return (n - 1) / (n + 1)


def avg_coherence_mixed(n: int) -> float:
    """Average coherence of Hilbert-Schmidt random mixed states.

    Evaluates 1 - (2 + bracket/n^2)/(n + 1) from half_moment_bracket(n), checked
    against the quadrature oracle first.
    """
    _require_dim(n)
    return 1.0 - (2.0 + half_moment_bracket(n) / n**2) / (n + 1)


def vandermonde_sqrt_integral(n: int) -> float:
    """Closed form of the integral of sqrt(mu1 mu2) e^{-sum mu} |Delta(mu)|^2
    over the positive orthant: (n-2)! prod_j Gamma(j)^2 times the moment
    bracket of the q = 1/2 table."""
    _require_dim(n, 2)
    log_prefactor = math.lgamma(n - 1) + 2.0 * math.fsum(math.lgamma(j) for j in range(1, n + 1))
    return math.exp(log_prefactor) * half_moment_bracket(n)


def trace_sqrt_squared_average(n: int) -> float:
    """Spectral average of (Tr sqrt(rho))^2 over the Hilbert-Schmidt ensemble:
    1 + bracket/n^2."""
    _require_dim(n)
    return 1.0 + half_moment_bracket(n) / n**2


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
    """Sphere bound 2 exp(-(k+1) eps^2 / (9 pi^3 eta^2 ln 2)), eta Lipschitz in the Euclidean
    distance of R^{k+1} on S^k. Proven: 4 for the reduced-state and pure maps, not the pure 4/n."""
    if sphere_dim < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {sphere_dim}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if lipschitz <= 0:
        raise ValueError(f"lipschitz constant must be > 0, got {lipschitz}")
    return 2.0 * math.exp(-(sphere_dim + 1) * epsilon**2 / (_LEVY_DENOM * lipschitz**2))


def tail_bound_pure(n: int, epsilon: float) -> float:
    """The paper's pure-state tail bound 2 exp(-n^3 eps^2 / (72 pi^3 ln 2)): the
    sphere bound on S^{2n-1} with the paper's Lipschitz constant 4/n, which is
    false from n = 4 on (see lipschitz_constant_pure), so the bound is unproven."""
    _require_dim(n, 2)
    return levy_bound(2 * n - 1, epsilon, lipschitz_constant_pure(n))


def tail_bound_mixed(n: int, epsilon: float) -> float:
    """Mixed-state tail bound 2 exp(-n eps^2 / (72 pi^3 ln 2)): the sphere
    bound on S^{2n-1} with the reduced-state Lipschitz constant."""
    _require_dim(n, 2)
    return levy_bound(2 * n - 1, epsilon, lipschitz_constant_mixed())


def coherent_subspace_dim(n: int, epsilon: float) -> int:
    """The paper's dimension floor((n^3 eps^2 - 1) / (3095 (3 - ln(eps n)))) of a
    subspace whose pure states almost always carry near-typical coherence; its
    n^3 presumably comes from the constant 4/n, false from n = 4 on (see
    lipschitz_constant_pure).

    Only defined for 0 < eps < 1/n. A non-positive numerator clamps to 0,
    since a subspace dimension cannot be negative.
    """
    _require_dim(n, 2)
    if not 0.0 < epsilon < 1.0 / n:
        raise ValueError(f"epsilon must lie in (0, 1/{n}), got {epsilon}")
    numerator = n**3 * epsilon**2 - 1.0  # over a denominator > 9, as epsilon n < 1
    return max(0, math.floor(numerator / (3095.0 * (3.0 - math.log(epsilon * n)))))


def lipschitz_constant_pure(n: int) -> float:
    """The paper's pure-state Lipschitz constant 4/n, which is false. Along
    psi(t) = (cos t, sin t, 0, ...), C = sin^2(2t)/2 has slope 1 at t = pi/8 for
    every n, so 4/n fails from n = 5 on along that family, and from n = 4 on over
    the sphere; check_lipschitz_pure fails at 10 of seeds 0-159 for that reason."""
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

