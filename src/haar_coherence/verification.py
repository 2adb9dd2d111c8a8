"""Named verification suites behind the ``verify`` command.

The oracle suite pits every closed form against an independent evaluation
route; the invariant suite exercises the coherence measures on random states.
All randomness derives deterministically from the given seed, with a distinct
sub-seed per check so no two checks share a stream.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from . import closed_forms, oracles
from .coherence import skew_coherence, skew_coherence_pure, skew_information
from .estimators import _coherence_task, _single_threaded_blas, estimate_average
from .linalg import hermitian_part, partial_trace_b, swap_operator
from .sampling import RngStream, _splitmix64, haar_pure_batch, haar_unitary_batch, hs_mixed_batch

SUITES = ("oracles", "invariants", "all")

_DIMS = (2, 3, 4, 8)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _subseed(seed: int, label: str) -> int:
    # Stable per-check seed; hash() is process-salted so crc32 is used instead.
    return _splitmix64(seed ^ crc32(label.encode()))


def _stream(seed, label, index=0):
    return RngStream(_subseed(seed, label), index)


def _worst(*values) -> float:
    """Largest entry of numbers and arrays; unlike max(), NaN anywhere gives NaN."""
    return float(np.max(np.concatenate([np.ravel(v) for v in values])))


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, computed the way
    scipy.stats.ks_2samp computes its statistic (importing scipy.stats costs
    about 0.8 s per CLI start)."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    diff = (np.searchsorted(a, both, side="right") / a.size
            - np.searchsorted(b, both, side="right") / b.size)
    return float(max(np.clip(-diff.min(), 0, 1), diff.max()))


def _outer(psi):
    # |psi><psi| for a (..., n) stack, entry for entry equal to np.outer
    return psi[..., :, None] * psi.conj()[..., None, :]


# ---------------------------------------------------------------------------
# oracle checks


def check_quadrature_exactness():
    worst = 0.0
    # small rule: every exact monomial degree directly
    rule = oracles.gauss_laguerre_rule(0.5, 8)
    for j in range(16):
        approx = float((rule.weights * rule.nodes**j).sum())
        exact = math.exp(math.lgamma(0.5 + j + 1.0))
        worst = _worst(worst, abs(approx - exact) / exact)
    # large rule: highest exact degrees, evaluated in log space since both the
    # monomial values and the target Gamma(q + j + 1) overflow a double
    big = oracles.gauss_laguerre_rule(0.5, 130)
    log_w = np.log(big.weights)
    for j in (200, 259):
        terms = np.exp(log_w + j * np.log(big.nodes) - math.lgamma(0.5 + j + 1.0))
        worst = _worst(worst, abs(float(terms.sum()) - 1.0))
    return CheckResult("gauss-laguerre exactness (alpha=1/2)", worst < 1e-12,
                       f"worst relative moment error {worst:.2e} (tol 1e-12)")


def check_orthogonality():
    eye = np.eye(7)
    gap_series = float(np.abs(closed_forms.moment_table(7, 0.0).values - eye).max())
    gap_quad = float(np.abs(oracles.quadrature_moment_table(7, 0.0).values - eye).max())
    worst = _worst(gap_series, gap_quad)
    return CheckResult("laguerre orthogonality (q=0, degrees <= 6)", worst < 1e-10,
                       f"max deviation from identity {worst:.2e} (tol 1e-10)")


def check_moment_routes():
    series = closed_forms.moment_table(128, 0.5)
    quad = oracles.quadrature_moment_table(128, 0.5)
    gap, gate = float(np.abs(series.values - quad.values).max()), closed_forms.MOMENT_GATE
    return CheckResult("moment table series vs quadrature (q=1/2, degrees <= 127)", gap <= gate,
                       f"max |series - quadrature| = {gap:.2e} (gate {gate:.0e})")


def check_moment_values():
    targets = {(0, 0): math.sqrt(math.pi) / 2, (0, 1): -math.sqrt(math.pi) / 4,
               (1, 1): 7 * math.sqrt(math.pi) / 8}
    series = closed_forms.moment_table(2, 0.5).values
    quad = oracles.quadrature_moment_table(2, 0.5).values
    worst = 0.0
    for (k, l), exact in targets.items():
        worst = _worst(worst, abs(series[k, l] - exact), abs(quad[k, l] - exact))
    return CheckResult("low-order q=1/2 moments vs exact values", worst < 1e-12,
                       f"worst absolute error {worst:.2e} (tol 1e-12)")


def check_vandermonde_mc(seed):
    failures = []
    est2 = oracles.vandermonde_sqrt_integral_mc(2, 10**6, _stream(seed, "vandermonde-2"))
    target = 3 * math.pi / 4
    z_moment = abs(est2.mean - target) / est2.stderr
    z_closed = abs(est2.mean - closed_forms.vandermonde_sqrt_integral(2)) / est2.stderr
    if not _worst(z_moment, z_closed) <= 4:
        failures.append(f"n=2 off by {_worst(z_moment, z_closed):.1f} sigma")
    est3 = oracles.vandermonde_sqrt_integral_mc(3, 10**7, _stream(seed, "vandermonde-3"))
    z3 = abs(est3.mean - closed_forms.vandermonde_sqrt_integral(3)) / est3.stderr
    if not z3 <= 4:
        failures.append(f"n=3 off by {z3:.1f} sigma")
    detail = (f"n=2: {est2.mean:.4f} vs 3pi/4 = {target:.4f} ({z_moment:.1f} sigma); "
              f"n=3: {est3.mean:.2f} vs closed form ({z3:.1f} sigma)")
    return CheckResult("exp-weighted Vandermonde integral, MC vs closed form",
                       not failures, detail if not failures else "; ".join(failures))


def check_twirl_fixed_points():
    ok = all(np.array_equal(oracles.twofold_twirl(a, n), a) for n in (2, 3)
             for a in (np.eye(n * n, dtype=complex), swap_operator(n).astype(complex)))
    return CheckResult("twirl closed form fixes identity and swap exactly", ok,
                       "bit-exact fixed points" if ok else "fixed point violated")


def check_twirl_mc(seed):
    samples = 10**5
    worst = 0.0
    for n in (2, 3):
        rng = _stream(seed, f"twirl-{n}")
        for rep in range(5):
            g = rng.complex_normal((n * n) ** 2).reshape(n * n, n * n)
            a = hermitian_part(g)
            limit = 5 * float(np.linalg.norm(a)) / math.sqrt(samples)
            emp = oracles.twofold_twirl_mc(a, n, samples, rng)
            gap = float(np.abs(emp - oracles.twofold_twirl(a, n)).max())
            worst = _worst(worst, gap / limit)
    return CheckResult("twirl MC vs closed form (N=2,3; 5 matrices each)", worst < 1.0,
                       f"worst entrywise error at {worst:.2f} of the 5/sqrt(S) budget")


def check_spectral_average(seed):
    failures, details = [], []
    for n, exact in ((2, 1 + 3 * math.pi / 16), (3, None)):
        est = oracles.trace_sqrt_squared_mc(n, 10**6, _stream(seed, f"spectral-{n}"))
        closed = closed_forms.trace_sqrt_squared_average(n)
        z = abs(est.mean - closed) / est.stderr
        details.append(f"n={n}: {est.mean:.5f} vs {closed:.5f} ({z:.1f} sigma)")
        if not z <= 4:
            failures.append(f"n={n} off by {z:.1f} sigma")
        if exact is not None and not abs(closed - exact) <= 1e-12:
            failures.append(f"n={n} closed form differs from 1 + 3pi/16")
    return CheckResult("spectral average of (Tr sqrt(rho))^2, MC vs closed form",
                       not failures, "; ".join(details if not failures else failures))


# ---------------------------------------------------------------------------
# invariant checks


def check_range(seed):
    worst_low, worst_high = 0.0, 0.0
    for n in _DIMS:
        values = _coherence_task("mixed", n, "skew")([_stream(seed, f"range-{n}")], 10**4)[0]
        worst_low = -_worst(-worst_low, -values)  # min(x) = -max(-x)
        worst_high = _worst(worst_high, values - (1 - 1 / n))
    ok = worst_low >= -1e-10 and worst_high <= 1e-10
    return CheckResult("coherence range [0, 1 - 1/N] (10^4 mixed states per N)", ok,
                       f"min {worst_low:.1e}, max excess {worst_high:.1e} (slack 1e-10)")


def check_projector_sum(seed):
    worst = 0.0
    for n in _DIMS:
        rho = hs_mixed_batch(_stream(seed, f"projsum-{n}"), n, 1000)
        # basis projectors stacked (n, 1, n, n) to broadcast against every state
        projectors = _outer(np.eye(n, dtype=complex))[:, None]
        total = skew_information(rho, projectors).sum(axis=0)
        worst = _worst(worst, np.abs(total - skew_coherence(rho)))
    return CheckResult("projector-sum form equals diagonal form (10^3 states per N)",
                       worst < 1e-10, f"max |difference| {worst:.2e} (tol 1e-10)")


def check_pure_mixed_consistency(seed):
    worst = 0.0
    for n in _DIMS:
        psi = haar_pure_batch(_stream(seed, f"purecons-{n}"), n, 1000)
        rho = hermitian_part(_outer(psi))
        worst = _worst(worst, np.abs(skew_coherence_pure(psi) - skew_coherence(rho)))
    return CheckResult("pure-state formula vs density-matrix formula (10^3 per N)",
                       worst < 1e-12, f"max |difference| {worst:.2e} (tol 1e-12)")


def check_lipschitz_pure(seed):
    worst = 0.0
    for n in _DIMS:
        rng = _stream(seed, f"lippure-{n}")
        psi, phi = (haar_pure_batch(rng, n, 10**4) for _ in range(2))
        delta = np.abs(skew_coherence_pure(psi) - skew_coherence_pure(phi))
        slope = closed_forms.lipschitz_constant_pure(n)
        allowed = slope * np.linalg.norm(psi - phi, axis=1) + 1e-12
        worst = _worst(worst, delta - allowed)
    return CheckResult("pure-state Lipschitz bound, slope 4/N (10^4 random pairs per N)",
                       worst <= 0.0, f"max violation {worst:.2e}")


def check_lipschitz_bipartite(seed):
    worst = 0.0
    slope = closed_forms.lipschitz_constant_mixed()
    for n in (2, 3):
        rng = _stream(seed, f"lipmix-{n}")
        psi, phi = (haar_pure_batch(rng, n * n, 1000) for _ in range(2))
        dist = np.linalg.norm(psi - phi, axis=1)
        full = np.abs(skew_coherence_pure(psi) - skew_coherence_pure(phi))
        rho, sigma = (hermitian_part(partial_trace_b(_outer(v), n, n)) for v in (psi, phi))
        reduced = np.abs(skew_coherence(rho) - skew_coherence(sigma))
        worst = _worst(worst, full - slope * dist - 1e-10, reduced - slope * dist - 1e-10)
    return CheckResult("bipartite Lipschitz bound, slope 4 (10^3 pairs, N=2,3)",
                       worst <= 0.0, f"max violation {worst:.2e}")


def check_polygamy(seed):
    worst = -1.0
    for n in (2, 3):
        psi = haar_pure_batch(_stream(seed, f"polygamy-{n}"), n * n, 1000)
        projector = _outer(psi)
        rho_a = hermitian_part(partial_trace_b(projector, n, n))
        rho_b = hermitian_part(np.einsum("...kakb->...ab", projector.reshape(-1, n, n, n, n)))
        lhs = 1.0 - skew_coherence_pure(psi)
        rhs = (1.0 - skew_coherence(rho_a)) * (1.0 - skew_coherence(rho_b))
        worst = _worst(worst, lhs - rhs)
    return CheckResult("polygamy inequality on bipartite pure states (10^3, N=2,3)",
                       worst <= 1e-10, f"max violation {worst:.2e} (slack 1e-10)")


def check_convexity(seed):
    worst = -1.0
    for n in (2, 3, 4):
        rng = _stream(seed, f"convex-{n}")
        rho, sigma = (hs_mixed_batch(rng, n, 1000) for _ in range(2))
        c_rho, c_sigma = skew_coherence(rho), skew_coherence(sigma)
        for p in (0.25, 0.5, 0.75):
            mix = skew_coherence(hermitian_part(p * rho + (1 - p) * sigma))
            worst = _worst(worst, mix - p * c_rho - (1 - p) * c_sigma)
    return CheckResult("convexity spot checks (10^3 pairs, p in {1/4, 1/2, 3/4})",
                       worst <= 1e-10, f"max violation {worst:.2e} (slack 1e-10)")


def check_extremes(seed):
    worst = 0.0
    for n in _DIMS:
        rng = _stream(seed, f"extremes-{n}")
        phases = np.exp(2j * np.pi * rng.uniform(1000 * n).reshape(1000, n))
        maximal = np.abs(skew_coherence_pure(phases / math.sqrt(n)) - (1 - 1 / n))
        weights = rng.exponential(1000 * n).reshape(1000, n)
        weights /= weights.sum(axis=1, keepdims=True)
        diagonal = np.abs(skew_coherence(weights[:, :, None] * np.eye(n)))
        worst = _worst(worst, maximal, diagonal)
    return CheckResult("maximally coherent and diagonal extremes (10^3 per N)",
                       worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)")


def check_haar_invariance(seed):
    failures = []
    for n in (2, 4):
        rotation = haar_unitary_batch(_stream(seed, f"haarinv-rot-{n}"), n, 1)[0]
        plain = haar_pure_batch(_stream(seed, f"haarinv-a-{n}"), n, 10**4)
        rotated = haar_pure_batch(_stream(seed, f"haarinv-b-{n}"), n, 10**4) @ rotation.T
        values_plain, values_rot = skew_coherence_pure(plain), skew_coherence_pure(rotated)
        gap = abs(values_plain.mean() - values_rot.mean())
        combined = math.hypot(values_plain.std(ddof=1), values_rot.std(ddof=1)) / 100.0
        if not gap <= 4 * combined:
            failures.append(f"N={n} means differ by {gap / combined:.1f} sigma")
    return CheckResult("Haar invariance of the coherence distribution (10^4, N=2,4)",
                       not failures, "; ".join(failures) or "means agree within 4 sigma")


def check_sampler_consistency(seed):
    worst_ks, worst_route = 0.0, 0.0
    for n in (2, 3):
        direct = _coherence_task("mixed", n, "skew")([_stream(seed, f"cons-direct-{n}")], 10**4)[0]
        psi = haar_pure_batch(_stream(seed, f"cons-bipartite-{n}"), n * n, 10**4)
        amp = psi.reshape(-1, n, n)
        gram = hermitian_part(amp @ np.conj(np.swapaxes(amp, 1, 2)))
        # the batched Gram matrices must be the partial trace, entry for entry
        reduced = partial_trace_b(_outer(psi[:200]), n, n)
        worst_route = _worst(worst_route, np.abs(reduced - gram[:200]))
        routed = skew_coherence(gram)
        worst_ks = _worst(worst_ks, _ks_statistic(direct, routed))
    return CheckResult("Gram sampler vs bipartite partial-trace route (KS, 10^4, N=2,3)",
                       worst_ks < 0.02 and worst_route < 1e-14,
                       f"max KS distance {worst_ks:.4f} (tol 0.02); "
                       f"partial-trace mismatch {worst_route:.1e}")


def check_mean_agreement(seed):
    failures = []
    for ensemble, analytic in (("pure", closed_forms.avg_coherence_pure),
                               ("mixed", closed_forms.avg_coherence_mixed)):
        for n in (2, 4):
            est = estimate_average(ensemble, n, 2 * 10**4, _subseed(seed, f"agree-{ensemble}-{n}"))
            z = abs(est.mean - analytic(n)) / est.stderr
            if not z <= 4:
                failures.append(f"{ensemble} N={n} off by {z:.1f} sigma")
    return CheckResult("MC ensemble means vs closed forms (2x10^4 samples)",
                       not failures, "; ".join(failures) or "all within 4 sigma")


def _fail_closed(check, args) -> CheckResult:
    """Run one check; a check that rejects its input or finds two routes
    disagreeing reports FAIL instead of aborting the suite."""
    try:
        return check(*args)
    except (ValueError, closed_forms.PrecisionError) as exc:
        return CheckResult(check.__name__.removeprefix("check_").replace("_", " "), False,
                           f"raised {type(exc).__name__}: {exc}")


def _workers() -> int:
    """Pool size of run_suite: two, or one when only one CPU is usable. The checks spend most
    of their time in numpy calls that release the interpreter lock, so two workers nearly
    halve `verify --suite all` on a 2-core host."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return min(2, len(affinity(0)) if affinity else os.cpu_count() or 1)


def run_suite(suite: str, seed: int):
    """Run one of the named suites; returns the list of CheckResults in suite
    order.

    The checks run concurrently on a small thread pool, with OpenBLAS on one
    thread. Each check draws only from its own sub-seeded streams, so the
    results do not depend on the number of workers.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    # (check, args) pairs, built per call so each check is looked up by its
    # module-global name when the suite runs
    oracle = [(check_quadrature_exactness, ()), (check_orthogonality, ()),
              (check_moment_routes, ()), (check_moment_values, ()),
              (check_vandermonde_mc, (seed,)), (check_twirl_fixed_points, ()),
              (check_twirl_mc, (seed,)), (check_spectral_average, (seed,))]
    invariant = [(check, (seed,)) for check in (
        check_range, check_projector_sum, check_pure_mixed_consistency, check_lipschitz_pure,
        check_lipschitz_bipartite, check_polygamy, check_convexity, check_extremes,
        check_haar_invariance, check_sampler_consistency, check_mean_agreement)]
    jobs = oracle * (suite != "invariants") + invariant * (suite != "oracles")
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=_workers()) as pool:
        futures = [pool.submit(_fail_closed, check, args) for check, args in jobs]
        return [future.result() for future in futures]
