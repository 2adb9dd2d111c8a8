import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import PI_60, exact_half_bracket_q, ulps_from
from haar_coherence import closed_forms as cf
from haar_coherence.coherence import skew_coherence_pure


def test_laguerre_moment_known_values():
    root_pi = math.sqrt(math.pi)
    values = cf.moment_table(6, 0.5).values
    assert values[0, 0] == pytest.approx(root_pi / 2, abs=1e-14)
    assert values[0, 1] == pytest.approx(-root_pi / 4, abs=1e-14)
    assert values[1, 1] == pytest.approx(7 * root_pi / 8, abs=1e-14)
    assert np.array_equal(values, values.T)


def test_laguerre_moment_orthogonality_at_q_zero():
    assert np.abs(cf.moment_table(7, 0.0).values - np.eye(7)).max() < 1e-10


def reference_moment(k, l, q):
    """The series as one generator of Python terms per entry: the reference
    the vectorized rows must reproduce bit for bit."""
    b = [1.0]  # binom(q, m), by moment_table's recurrence
    for i in range(max(k, l)):
        b.append(b[-1] * (q - i) / (i + 1))
    sign = -1.0 if (k + l) % 2 else 1.0
    terms = (
        b[k - r] * b[l - r] * math.exp(math.lgamma(q + r + 1.0) - math.lgamma(r + 1.0))
        for r in range(min(k, l) + 1)
    )
    return sign * math.fsum(terms)


def test_moment_table_matches_elementwise_route():
    table = cf.moment_table(6, 0.5)
    for k in range(6):
        for l in range(6):
            assert table.values[k, l] == reference_moment(k, l, 0.5)
    n = 200
    table = cf.moment_table(n, 0.5)
    pairs = np.random.default_rng(2024).integers(0, n, size=(40, 2)).tolist()
    for k, l in pairs + [[0, 0], [0, n - 1], [n - 1, 0], [n - 1, n - 1]]:
        assert table.values[k, l] == reference_moment(k, l, 0.5)


@pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 1.3])
def test_moment_tables_have_the_bytes_of_the_elementwise_route(q):
    # entry (k, l) does not depend on the table size, so one 40 x 40 reference
    # serves every n; q = 0 has exact zeros whose signs must match too
    reference = np.array([[reference_moment(k, l, q) for l in range(40)] for k in range(40)])
    for n in range(1, 41):
        assert cf.moment_table(n, q).values.tobytes() == reference[:n, :n].tobytes()


EXACT_SUM_CASES = [
    [1.0, 2.0**-80, -1.0, 2.0**-200],  # three passes and more
    [2.0**-200, 1.0, 2.0**-80, -1.0, 3.0 * 2.0**-300],
    [1.0, 2.0**-53],  # half-way: ties to even, down
    [1.0 + 2.0**-52, 2.0**-53],  # half-way: ties to even, up
    [1.0, 2.0**-53, 2.0**-160],  # just above half-way, found by a later pass
    [-1.0, -(2.0**-53)],
    [1.0, -1.0],  # exact cancellation
    [0.1, 0.2, 0.3, -0.1, -0.2, -0.3],
    [1e300, 1.0, -1e300],
    [0.0, 0.0], [-0.0, -0.0], [-0.0], [0.0, -0.0, -0.0], [-0.0, 1.0, -1.0],
    [3.25],  # width 1
    [5e-324, 5e-324, -1e-320],  # subnormal terms
    [1.0, 2.0**-1000],  # passes run down to the subnormal range
    [1e-300, 7e-310, -1e-300],
    [1e305, 1e305, -2e305, 3.0],  # sigma would overflow
    [math.inf, 1.0], [-math.inf, 2.0, -math.inf], [math.nan, 1.0],
]


def bits(x):
    return np.float64(x).tobytes()


def test_moment_bracket_sums_exactly_as_fsum_does():
    # each case finite when squared on the diagonal of a symmetric table, its off-diagonal
    # entries the case rolled by one place
    cases = [c for c in EXACT_SUM_CASES if all(math.isfinite(x * x) for x in c)]
    assert len(cases) == 17
    naive_differs = False
    for case in cases:
        values, m = np.diag(case), len(case)
        i, j = np.triu_indices(m, 1)
        values[i, j] = values[j, i] = np.roll(case, 1)[(i + j) % m]
        expected = (math.fsum(case) ** 2
                    - math.fsum(x**2 for x in values.ravel().tolist()))
        assert bits(cf.moment_bracket(values)) == bits(expected), case
        naive = float(np.sum(np.diagonal(values))) ** 2 - float(np.sum(values**2))
        naive_differs |= bits(naive) != bits(expected)
    assert naive_differs


def test_moment_table_refuses_a_weight_exponent_it_cannot_represent():
    # Gamma(q + r + 1)/r! overflows a double once q + r reaches ≈ 171, a term or an entry's
    # exact sum at lower q and high degrees, with no warning first; q <= -1 has no moments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, q in ((5, 300.0), (5, 1e308), (5, -1.0), (400, 100.0), (513, 100.0),
                     (100, 134.0)):
            with pytest.raises(ValueError, match="weight exponent"):
                cf.moment_table(n, q)
    assert np.isfinite(cf.moment_table(5, 160.0).values).all()


def test_mixed_closed_forms_are_python_floats():
    # figure1 writes the analytic column with repr, which numpy scalars change
    assert type(cf.moment_bracket(cf.moment_table(5, 0.5).values)) is float
    assert type(cf.half_moment_bracket(5)) is float
    assert type(cf.avg_coherence_mixed(4)) is float


def test_avg_coherence_pure():
    assert cf.avg_coherence_pure(1) == 0.0
    assert cf.avg_coherence_pure(2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cf.avg_coherence_pure(3) == pytest.approx(0.5, abs=1e-15)
    values = [cf.avg_coherence_pure(n) for n in range(2, 200)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert cf.avg_coherence_pure(10**9) == pytest.approx(1.0, abs=1e-8)


def test_avg_coherence_mixed_exact_small_dimensions():
    # both bracket routes give exactly 0 at n = 1, where no branch of its own is left
    assert cf.half_moment_bracket(1) == 0.0 and cf.trace_sqrt_squared_average(1) == 1.0
    assert cf.avg_coherence_mixed(1) == 0.0
    assert abs(cf.avg_coherence_mixed(2) - (1.0 / 3.0 - math.pi / 16)) < 1e-12
    assert abs(cf.avg_coherence_mixed(3) - (0.5 - 103 * math.pi / 1024)) < 1e-12


def test_avg_coherence_mixed_large_dimension_plateau():
    value = cf.avg_coherence_mixed(64)
    assert 0.25 <= value <= 0.30


def test_avg_coherence_mixed_below_half_of_max():
    for n in range(2, 33):
        assert cf.avg_coherence_mixed(n) < (1.0 - 1.0 / n) / 2


def test_levy_bound_values():
    assert cf.levy_bound(3, 1e-9, 1.0) == pytest.approx(2.0, abs=1e-9)
    # direct arithmetic: 2 exp(-4 / (9 pi^3 ln 2))
    expected = 2.0 * math.exp(-4.0 / (9 * math.pi**3 * math.log(2)))
    assert expected == pytest.approx(1.95907, abs=1e-5)
    assert cf.levy_bound(3, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        cf.levy_bound(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cf.levy_bound(3, -1.0, 1.0)


def test_tail_bound_pure_values():
    assert cf.tail_bound_pure(5, 1e-12) == pytest.approx(2.0)
    expected_10 = 2.0 * math.exp(-10.0 / (72 * math.pi**3 * math.log(2)))
    assert cf.tail_bound_pure(10, 0.1) == pytest.approx(expected_10, rel=1e-14)
    assert expected_10 == pytest.approx(1.9871, abs=1e-4)
    expected_50 = 2.0 * math.exp(-11250.0 / (72 * math.pi**3 * math.log(2)))
    assert cf.tail_bound_pure(50, 0.3) == pytest.approx(expected_50, rel=1e-14)
    assert expected_50 == pytest.approx(0.00139, abs=2e-5)


def test_tail_bound_pure_is_levy_bound_specialized():
    # k = 2N - 1 and eta = 4/N collapse to the pure-state bound
    for n in (2, 7, 40):
        for eps in (0.05, 0.3):
            assert cf.levy_bound(2 * n - 1, eps, 4.0 / n) == cf.tail_bound_pure(n, eps)


def test_tail_bound_mixed_values():
    assert cf.tail_bound_mixed(7, 1e-12) == pytest.approx(2.0)
    expected = 2.0 * math.exp(-4000.0 / (72 * math.pi**3 * math.log(2)))
    assert cf.tail_bound_mixed(10**5, 0.2) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.15080, abs=1e-4)
    for n in (2, 5, 100):
        assert cf.tail_bound_mixed(n, 0.2) >= cf.tail_bound_pure(n, 0.2)
    # the bipartite-sphere reading of the generic bound with eta = 4
    for n in (2, 5):
        assert cf.levy_bound(2 * n**2 - 1, 0.1, cf.lipschitz_constant_mixed()) == pytest.approx(
            cf.tail_bound_mixed(n**2, 0.1), rel=1e-12)


def test_tail_bound_mixed_is_levy_bound_bit_for_bit():
    # the mixed bound is levy_bound on S^{2n-1} with slope 4, and equals the
    # direct formula 2 exp(-n eps^2 / (72 pi^3 ln 2)) to the last bit
    denom = 72.0 * math.pi**3 * math.log(2.0)
    for n in range(2, 200):
        for eps in np.linspace(0.01, 1.0, 50):
            eps = float(eps)
            assert cf.tail_bound_mixed(n, eps) == 2.0 * math.exp(-n * eps**2 / denom)
    with pytest.raises(ValueError):
        cf.tail_bound_mixed(1, 0.1)
    with pytest.raises(ValueError):
        cf.tail_bound_mixed(4, 0.0)


def test_tail_bounds_monotone():
    for eps in (0.05, 0.1, 0.3):
        values = [cf.tail_bound_pure(n, eps) for n in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for n in (5, 17):
        values = [cf.tail_bound_pure(n, eps) for eps in np.linspace(0.01, 1.0, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_coherent_subspace_dim():
    assert cf.coherent_subspace_dim(1000, 1e-4) == 0
    assert cf.coherent_subspace_dim(40000, 2e-5) == 2
    with pytest.raises(ValueError, match="epsilon"):
        cf.coherent_subspace_dim(100, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        cf.coherent_subspace_dim(100, 0.01)  # exactly 1/N is outside the open interval
    with pytest.raises(ValueError, match="epsilon"):
        cf.coherent_subspace_dim(100, -0.001)


def test_lipschitz_constants():
    assert cf.lipschitz_constant_pure(2) == 2.0
    assert cf.lipschitz_constant_pure(4) == 1.0
    assert cf.lipschitz_constant_pure(10**6) == pytest.approx(0.0, abs=1e-5)
    assert cf.lipschitz_constant_mixed() == 4.0


@pytest.mark.parametrize("n", [5, 8, 16, 64])
def test_paper_pure_lipschitz_constant_fails_along_a_two_level_family(n):
    # along psi(t) = (cos t, sin t, 0, ...) the coherence is sin^2(2t)/2, whose
    # slope at t = pi/8 is 1 at every N: above the paper's 4/N from N = 5 on
    def coherence(t):
        psi = np.zeros(n, dtype=complex)
        psi[:2] = math.cos(t), math.sin(t)
        return float(skew_coherence_pure(psi))

    h = 1e-5
    slope = (coherence(math.pi / 8 + h) - coherence(math.pi / 8 - h)) / (2 * h)
    assert slope == pytest.approx(1.0, abs=1e-6)
    assert slope > cf.lipschitz_constant_pure(n)


def test_avg_cr_pure():
    assert cf.avg_cr_pure(1) == 0.0
    assert cf.avg_cr_pure(2) == pytest.approx(0.5, abs=1e-15)
    assert cf.avg_cr_pure(4) == pytest.approx(13.0 / 12.0, abs=1e-14)


def test_avg_cr_mixed():
    assert cf.avg_cr_mixed(1) == 0.0
    assert cf.avg_cr_mixed(2) == pytest.approx(0.25, abs=1e-15)
    assert cf.avg_cr_mixed(10**9) == pytest.approx(0.5, abs=1e-8)


def test_pure_average_gap_identity():
    # exact rational oracle: (1 - 1/N) - (N-1)/(N+1) == (N-1)/(N(N+1))
    for n in range(2, 65):
        exact = Fraction(n - 1, n) - Fraction(n - 1, n + 1)
        assert exact == Fraction(n - 1, n * (n + 1))
        assert abs(cf.pure_average_gap(n) - float(exact)) <= 1e-15 * float(exact)
    # gap < average, so the average sits closer to the maximum
    n_grid = np.arange(2, 10**6 + 1, dtype=float)
    gap = (n_grid - 1) / (n_grid * (n_grid + 1))
    average = (n_grid - 1) / (n_grid + 1)
    assert np.all(gap < average)


def test_comparison_orderings():
    for n in range(2, 65):
        assert cf.avg_cr_pure(n) > cf.avg_coherence_pure(n)
        assert cf.avg_cr_mixed(n) > cf.avg_coherence_mixed(n)


def test_validated_table_is_cached():
    # the bracket replaced the validated table; its old name stays an alias of the same cache
    assert cf.validated_half_moment_table is cf.half_moment_bracket
    cf.half_moment_bracket.cache_clear()
    a = cf.half_moment_bracket(16)
    b = cf.half_moment_bracket(16)
    assert a is b
    info = cf.half_moment_bracket.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_exact_bracket_helper_is_pinned():
    assert exact_half_bracket_q(2) == Fraction(3, 4)
    assert exact_half_bracket_q(3) == Fraction(927, 256)
    assert exact_half_bracket_q(5) == Fraction(89021175, 2**22)
    # avg_coherence_mixed = 1 - (2 + pi Q_n/n^2)/(n + 1): 1/3 - pi/16 and 1/2 - 103 pi/1024
    assert exact_half_bracket_q(2) / 4 / 3 == Fraction(1, 16)
    assert exact_half_bracket_q(3) / 9 / 4 == Fraction(103, 1024)


BRACKET_DIMS = [*range(2, 65), 128, 256]


@pytest.mark.parametrize("n", BRACKET_DIMS)
def test_half_moment_bracket_is_within_8_ulps_of_pi_q(n):
    # measured <= 4.72 ulps (N = 256)
    assert abs(ulps_from(cf.half_moment_bracket(n), PI_60 * exact_half_bracket_q(n))) <= 8


@pytest.mark.parametrize("n", BRACKET_DIMS)
def test_avg_coherence_mixed_is_within_16_ulps_of_its_exact_value(n):
    # 1 - (2 + pi Q_n/n^2)/(n + 1), measured <= 9.40 ulps (N = 256)
    exact = 1 - (2 + PI_60 * exact_half_bracket_q(n) / n**2) / (n + 1)
    assert abs(ulps_from(cf.avg_coherence_mixed(n), exact)) <= 16


def mutant_bracket(old, new):
    """half_moment_bracket rebuilt from its source with `old` replaced by `new` once: an
    injected defect, with a cache of its own."""
    source = inspect.getsource(cf.half_moment_bracket.__wrapped__)
    assert source.count(old) == 1
    namespace = dict(vars(cf))
    exec(source.replace(old, new), namespace)
    return namespace["half_moment_bracket"]


@pytest.mark.parametrize("old,new", [
    ("b[j] = (-1) ** (j + 1)", "b[j] = (-1) ** j"),  # the sign of every b_j, j >= 1, flipped
    ("(2 if d else 1) * ", ""),  # the off-diagonal factor 2 dropped
    ("g[j] = (2 * j + 1)", "g[j - 1] = (2 * j + 1)"),  # g~_{r+1} in place of g~_r
])
@pytest.mark.parametrize("n", [3, 8, 64])  # at n = 2 the first and third leave Q unchanged
def test_bracket_gate_catches_an_injected_defect(old, new, n):
    with pytest.raises(cf.PrecisionError, match=f"bracket routes disagree at n={n}"):
        mutant_bracket(old, new)(n)
    assert mutant_bracket(old, old)(n) == cf.half_moment_bracket(n)  # the rebuild itself is sound


def test_mixed_closed_forms_call_no_series_table(monkeypatch):
    def refused(*args):
        raise AssertionError("the O(n^3) series on the Hilbert-Schmidt path")

    monkeypatch.setattr(cf, "moment_table", refused)
    cf.half_moment_bracket.cache_clear()
    for closed_form in (cf.avg_coherence_mixed, cf.trace_sqrt_squared_average,
                        cf.vandermonde_sqrt_integral):
        assert math.isfinite(closed_form(5))
    assert cf.half_moment_bracket.cache_info().misses == 1


@pytest.mark.parametrize("n", [1024, 700, 400])
def test_moment_table_refuses_an_overflowing_exponent_in_its_first_block(monkeypatch, n):
    # the top degree is summed first, where an overflow shows: its products overflow and
    # refuse before any entry's fsum, not after almost the whole series
    calls = []
    fsum = math.fsum

    def counted(terms):
        calls.append(terms)
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counted)
    with pytest.raises(ValueError, match="weight exponent q = 100.0"):
        cf.moment_table(n, 100.0)
    assert calls == []
    cf.moment_table(3, 100.0)  # the count sees the series: one fsum per entry k <= l
    assert len(calls) == 6
