"""Named verification suites behind the ``verify`` command.

The oracle suite pits every closed form against an independent evaluation
route; the invariant suite exercises the coherence measures on random states.
All randomness derives deterministically from the given seed, with a distinct
sub-seed per check so no two checks share a stream.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from . import closed_forms, estimators, oracles
from .coherence import skew_coherence, skew_coherence_pure, skew_information
from .estimators import _coherence_task, _single_threaded_blas, estimate_average
from .linalg import hermitian_part, partial_trace_b, swap_operator
from .sampling import (RngStream, _splitmix64, haar_populations_batch, haar_pure_batch,
                       haar_unitary_batch, hs_mixed_batch)

SUITES = ("oracles", "invariants", "all")

_DIMS = (2, 3, 4, 8)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict. Each gate is a (label, value, tolerance) triple; the
    check passes when it raised no error, holds at least one gate and every
    value <= tolerance, so a NaN value fails. `detail` is the error text or
    every gate, rendered one way."""

    name: str
    gates: tuple = ()
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and bool(self.gates) and all(
            value <= tolerance for _, value, tolerance in self.gates)

    @property
    def detail(self) -> str:
        return self.error or "; ".join(f"{label} {value:#.3g} (tol {tolerance:g})"
                                       for label, value, tolerance in self.gates)


def _subseed(seed: int, label: str) -> int:
    # Stable per-check seed; hash() is process-salted so crc32 is used instead.
    return _splitmix64(seed ^ crc32(label.encode()))


def _stream(seed, label):
    return RngStream(_subseed(seed, label))


def _worst(*values) -> float:
    """Largest entry of numbers and arrays; unlike max(), NaN anywhere gives NaN."""
    return float(np.max(np.concatenate([np.ravel(v) for v in values])))


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, computed the way
    scipy.stats.ks_2samp computes its statistic (scipy is not a runtime
    dependency)."""
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
    errors = []
    # small rule: every exact monomial degree directly
    nodes, weights = oracles.gauss_laguerre_rule(0.5, 8)
    for j in range(16):
        exact = math.exp(math.lgamma(0.5 + j + 1.0))
        errors.append(abs(float((weights * nodes**j).sum()) - exact) / exact)
    # large rule: highest exact degrees, evaluated in log space since both the
    # monomial values and the target Gamma(q + j + 1) overflow a double
    nodes, weights = oracles.gauss_laguerre_rule(0.5, 130)
    for j in (200, 259):
        terms = np.exp(np.log(weights) + j * np.log(nodes) - math.lgamma(0.5 + j + 1.0))
        errors.append(abs(float(terms.sum()) - 1.0))
    return CheckResult("gauss-laguerre exactness (alpha=1/2)",
                       (("worst relative moment error", _worst(*errors), 1e-12),))


def check_orthogonality():
    eye = np.eye(7)
    gap_series = np.abs(closed_forms.moment_table(7, 0.0).values - eye)
    gap_quad = np.abs(oracles.quadrature_moment_table(7, 0.0).values - eye)
    return CheckResult("laguerre orthogonality (q=0, degrees <= 6)",
                       (("max deviation from identity", _worst(gap_series, gap_quad), 1e-10),))


def check_moment_routes():
    series = closed_forms.moment_table(128, 0.5)
    quad = oracles.quadrature_moment_table(128, 0.5)
    return CheckResult("moment table series vs quadrature (q=1/2, degrees <= 127)",
                       (("max |series - quadrature|", _worst(np.abs(series.values - quad.values)),
                         closed_forms.MOMENT_GATE),))


def check_moment_values():
    targets = {(0, 0): math.sqrt(math.pi) / 2, (0, 1): -math.sqrt(math.pi) / 4,
               (1, 1): 7 * math.sqrt(math.pi) / 8}
    series = closed_forms.moment_table(2, 0.5).values
    quad = oracles.quadrature_moment_table(2, 0.5).values
    errors = [abs(table[k, l] - exact) for (k, l), exact in targets.items()
              for table in (series, quad)]
    return CheckResult("low-order q=1/2 moments vs exact values",
                       (("worst absolute error", _worst(*errors), 1e-12),))


def check_vandermonde_mc(seed):
    est2 = oracles.vandermonde_sqrt_integral_mc(2, 10**6, _stream(seed, "vandermonde-2"))
    est3 = oracles.vandermonde_sqrt_integral_mc(3, 10**7, _stream(seed, "vandermonde-3"))
    closed2 = closed_forms.vandermonde_sqrt_integral(2)
    return CheckResult("exp-weighted Vandermonde integral, MC vs closed form", (
        ("n=2 z vs closed form", abs(est2.mean - closed2) / est2.stderr, 4),
        ("n=3 z vs closed form",
         abs(est3.mean - closed_forms.vandermonde_sqrt_integral(3)) / est3.stderr, 4),
        ("n=2 |closed form - 3pi/4|", abs(closed2 - 3 * math.pi / 4), 1e-12)))


def check_twirl_fixed_points():
    gap = _worst(*(np.abs(oracles.twofold_twirl(a, n) - a) for n in (2, 3)
                   for a in (np.eye(n * n, dtype=complex), swap_operator(n).astype(complex))))
    return CheckResult("twirl closed form fixes identity and swap exactly",
                       (("max |twirl(A) - A|", gap, 0),))


def check_twirl_mc(seed):
    samples = 10**5
    ratios = []
    for n in (2, 3):
        rng = _stream(seed, f"twirl-{n}")
        for _ in range(5):
            g = rng.complex_normal((n * n) ** 2).reshape(n * n, n * n)
            a = hermitian_part(g)
            limit = 5 * float(np.linalg.norm(a)) / math.sqrt(samples)
            emp = oracles.twofold_twirl_mc(a, n, samples, rng)
            ratios.append(float(np.abs(emp - oracles.twofold_twirl(a, n)).max()) / limit)
    return CheckResult("twirl MC vs closed form (N=2,3; 5 matrices each)",
                       (("worst entrywise error / (5 |A| / sqrt(S))", _worst(*ratios), 1),))


def check_spectral_average(seed):
    closed = {n: closed_forms.trace_sqrt_squared_average(n) for n in (2, 3)}
    gates = []
    for n in (2, 3):
        est = oracles.trace_sqrt_squared_mc(n, 10**6, _stream(seed, f"spectral-{n}"))
        gates.append((f"n={n} z", abs(est.mean - closed[n]) / est.stderr, 4))
    gates.append(("n=2 |closed form - (1 + 3pi/16)|", abs(closed[2] - (1 + 3 * math.pi / 16)),
                  1e-12))
    return CheckResult("spectral average of (Tr sqrt(rho))^2, MC vs closed form", tuple(gates))


# ---------------------------------------------------------------------------
# invariant checks


def check_range(seed):
    values = [_coherence_task("mixed", n, "skew")([_stream(seed, f"range-{n}")], 10**4)[0]
              for n in _DIMS]
    return CheckResult("coherence range [0, 1 - 1/N] (10^4 mixed states per N)", (
        ("max -C", _worst(*(-v for v in values)), 1e-10),
        ("max C - (1 - 1/N)", _worst(*(v - (1 - 1 / n) for n, v in zip(_DIMS, values))), 1e-10)))


def check_projector_sum(seed):
    gaps = []
    for n in _DIMS:
        rho = hs_mixed_batch(_stream(seed, f"projsum-{n}"), n, 1000)
        projectors = _outer(np.eye(n, dtype=complex))[:, None]  # against 125 states at a time
        total = np.concatenate([skew_information(s, projectors).sum(0) for s in np.split(rho, 8)])
        gaps.append(np.abs(total - skew_coherence(rho)))
    return CheckResult("projector-sum form equals diagonal form (10^3 states per N)",
                       (("max |difference|", _worst(*gaps), 1e-10),))


def check_pure_mixed_consistency(seed):
    gaps = []
    for n in _DIMS:
        psi = haar_pure_batch(_stream(seed, f"purecons-{n}"), n, 1000)
        gaps.append(np.abs(skew_coherence_pure(psi) - skew_coherence(hermitian_part(_outer(psi)))))
    return CheckResult("pure-state formula vs density-matrix formula (10^3 per N)",
                       (("max |difference|", _worst(*gaps), 1e-12),))


def check_lipschitz_pure(seed):
    excess = []
    for n in _DIMS:
        rng = _stream(seed, f"lippure-{n}")
        psi, phi = (haar_pure_batch(rng, n, 10**4) for _ in range(2))
        delta = np.abs(skew_coherence_pure(psi) - skew_coherence_pure(phi))
        slope = closed_forms.lipschitz_constant_pure(n)
        excess.append(delta - (slope * np.linalg.norm(psi - phi, axis=1) + 1e-12))
    return CheckResult("pure-state Lipschitz bound, slope 4/N (10^4 random pairs per N)",
                       (("max violation", _worst(*excess), 0),))


def check_lipschitz_bipartite(seed):
    excess = []
    slope = closed_forms.lipschitz_constant_mixed()
    for n in (2, 3):
        rng = _stream(seed, f"lipmix-{n}")
        psi, phi = (haar_pure_batch(rng, n * n, 1000) for _ in range(2))
        dist = np.linalg.norm(psi - phi, axis=1)
        full = np.abs(skew_coherence_pure(psi) - skew_coherence_pure(phi))
        rho, sigma = (hermitian_part(partial_trace_b(_outer(v), n, n)) for v in (psi, phi))
        reduced = np.abs(skew_coherence(rho) - skew_coherence(sigma))
        excess += [full - slope * dist - 1e-10, reduced - slope * dist - 1e-10]
    return CheckResult("bipartite Lipschitz bound, slope 4 (10^3 pairs, N=2,3)",
                       (("max violation", _worst(*excess), 0),))


def check_polygamy(seed):
    excess = []
    for n in (2, 3):
        psi = haar_pure_batch(_stream(seed, f"polygamy-{n}"), n * n, 1000)
        projector = _outer(psi)
        rho_a = hermitian_part(partial_trace_b(projector, n, n))
        rho_b = hermitian_part(np.einsum("...kakb->...ab", projector.reshape(-1, n, n, n, n)))
        lhs = 1.0 - skew_coherence_pure(psi)
        excess.append(lhs - (1.0 - skew_coherence(rho_a)) * (1.0 - skew_coherence(rho_b)))
    return CheckResult("polygamy inequality on bipartite pure states (10^3, N=2,3)",
                       (("max violation", _worst(*excess), 1e-10),))


def check_convexity(seed):
    excess = []
    for n in (2, 3, 4):
        rng = _stream(seed, f"convex-{n}")
        rho, sigma = (hs_mixed_batch(rng, n, 1000) for _ in range(2))
        c_rho, c_sigma = skew_coherence(rho), skew_coherence(sigma)
        for p in (0.25, 0.5, 0.75):
            mix = skew_coherence(hermitian_part(p * rho + (1 - p) * sigma))
            excess.append(mix - p * c_rho - (1 - p) * c_sigma)
    return CheckResult("convexity spot checks (10^3 pairs, p in {1/4, 1/2, 3/4})",
                       (("max violation", _worst(*excess), 1e-10),))


def check_extremes(seed):
    gaps = []
    for n in _DIMS:
        rng = _stream(seed, f"extremes-{n}")
        phases = np.exp(2j * np.pi * rng.uniform(1000 * n).reshape(1000, n))
        gaps.append(np.abs(skew_coherence_pure(phases / math.sqrt(n)) - (1 - 1 / n)))
        weights = haar_populations_batch([rng], n, 1000)
        gaps.append(np.abs(skew_coherence(weights[:, :, None] * np.eye(n))))
    return CheckResult("maximally coherent and diagonal extremes (10^3 per N)",
                       (("max deviation", _worst(*gaps), 1e-12),))


def check_haar_invariance(seed):
    z, samples = [], 10**4
    for n in (2, 4):
        rotation = haar_unitary_batch(_stream(seed, f"haarinv-rot-{n}"), n, 1)[0]
        plain = haar_pure_batch(_stream(seed, f"haarinv-a-{n}"), n, samples)
        rotated = haar_pure_batch(_stream(seed, f"haarinv-b-{n}"), n, samples) @ rotation.T
        values_plain, values_rot = skew_coherence_pure(plain), skew_coherence_pure(rotated)
        spread = math.hypot(values_plain.std(ddof=1), values_rot.std(ddof=1))
        z.append(abs(values_plain.mean() - values_rot.mean()) / (spread / math.sqrt(samples)))
    return CheckResult("Haar invariance of the coherence distribution (10^4, N=2,4)",
                       (("worst z of the mean gap", _worst(*z), 4),))


def check_sampler_consistency(seed):
    ks, mismatch = [], []
    for n in (2, 3):
        direct = _coherence_task("mixed", n, "skew")([_stream(seed, f"cons-direct-{n}")], 10**4)[0]
        psi = haar_pure_batch(_stream(seed, f"cons-bipartite-{n}"), n * n, 10**4)
        amp = psi.reshape(-1, n, n)
        gram = hermitian_part(amp @ np.conj(np.swapaxes(amp, 1, 2)))
        # the batched Gram matrices must be the partial trace, entry for entry
        mismatch.append(np.abs(partial_trace_b(_outer(psi[:200]), n, n) - gram[:200]))
        ks.append(_ks_statistic(direct, skew_coherence(gram)))
    return CheckResult("Gram sampler vs bipartite partial-trace route (KS, 10^4, N=2,3)", (
        ("max KS distance", _worst(*ks), 0.02),
        ("partial-trace mismatch", _worst(*mismatch), 1e-14)))


def check_mean_agreement(seed):
    z = []
    for ensemble in estimators.ENSEMBLES:
        for n in (2, 4):
            est = estimate_average(ensemble, n, 2 * 10**4, _subseed(seed, f"agree-{ensemble}-{n}"))
            z.append(abs(est.mean - _coherence_task(ensemble, n, "skew").mean(n)) / est.stderr)
    return CheckResult("MC ensemble means vs closed forms (2x10^4 samples)",
                       (("worst z", _worst(*z), 4),))


def _fail_closed(check, args) -> CheckResult:
    """Run one check; a check that rejects its input or finds two routes
    disagreeing reports FAIL instead of aborting the suite."""
    try:
        return check(*args)
    except (ValueError, closed_forms.PrecisionError) as exc:
        return CheckResult(check.__name__.removeprefix("check_").replace("_", " "),
                           error=f"raised {type(exc).__name__}: {exc}")


def run_suite(suite: str, seed: int):
    """Run one of the named suites; returns the list of CheckResults in suite
    order.

    The checks run concurrently on a pool of two threads (one where only one CPU is usable),
    with OpenBLAS on one thread: they spend most of their time in numpy calls that release the
    interpreter lock, so two workers nearly halve `verify --suite all` on a 2-core host. Each
    check draws only from its own sub-seeded streams, so the results do not depend on the
    number of workers.
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
    with _single_threaded_blas(), ThreadPoolExecutor(min(2, estimators._usable_cpus())) as pool:
        futures = [pool.submit(_fail_closed, check, args) for check, args in jobs]
        return [future.result() for future in futures]
