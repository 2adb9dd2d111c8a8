"""Output checks for the benchmark's CLI invocations.

Every check fails closed: an output that cannot be parsed, a non-finite
number, a missing file or a non-zero exit code is a failure, and comparisons
are written so that NaN never passes them.
"""

import json
import math
from dataclasses import dataclass

MC_HEADER = "ensemble,N,measure,mean,stderr,samples,seed"
TAIL_HEADER = "ensemble,N,epsilon,frequency,bound,samples,seed"
FIGURE1_HEADER = "N,analytic,mc_mean,mc_stderr,n_samples,seed"
VERIFY_CHECKS = {"all": 19, "oracles": 8, "invariants": 11}

# Largest plausible count of samples beyond epsilon, per (ensemble, N, epsilon)
# point the workloads use. At N=29 the pure-state skew coherence has standard
# deviation 0.011, so epsilon=0.3 is 27 of them; in 3e6 samples the largest
# deviation was 0.18, and the frequency beyond 0.15 was 2e-6, falling about
# fivefold per 0.03. A run should see no exceedance; the Levy bound there is
# 0.48, far too loose to catch a wrong frequency.
TAIL_MAX_EXCEEDANCES = {("pure", 29, 0.3): 3}

# Closed-form values must match the benchmark's own quadrature route to this
# relative tolerance; the program's series route agrees to ~1e-13 up to N=256.
CLOSED_FORM_RTOL = 1e-10


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    files: dict    # path -> bytes, or None when the file was not written


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _csv_record(stdout, header):
    lines = stdout.decode().splitlines()
    if len(lines) != 2 or lines[0] != header:
        raise ValueError(f"expected a header {header!r} and one record")
    return dict(zip(header.split(","), lines[1].split(",")))


def pure_tail_bound(n: int, epsilon: float) -> float:
    """The paper's pure-state concentration bound, 2 exp(-N^3 eps^2 / (72 pi^3 ln 2))."""
    return 2.0 * math.exp(-n**3 * epsilon**2 / (72.0 * math.pi**3 * math.log(2.0)))


def mixed_average_reference(n: int) -> float:
    """Average mixed-state coherence from the quadrature moment table and the
    moment bracket, bypassing the program's series route and its cache."""
    from haar_coherence import closed_forms, oracles

    table = oracles.quadrature_moment_table(n, 0.5)
    return 1.0 - (2.0 + closed_forms.moment_bracket(table.values) / n**2) / (n + 1)


class Checker:
    """Checks one invocation's outcome; closed-form references are cached."""

    def __init__(self):
        self._references = {}

    def problems(self, argv, outcome: Outcome):
        """List of reasons the outcome is wrong; empty when it is correct."""
        if outcome.returncode != 0:
            tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {outcome.returncode}: {' '.join(tail)}"]
        try:
            return getattr(self, "_" + argv[0].replace("-", "_"))(argv, outcome)
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            return [f"unparseable output: {exc}"]

    def _mc(self, argv, outcome):
        rec = _csv_record(outcome.stdout, MC_HEADER)
        n, samples = int(rec["N"]), int(rec["samples"])
        mean, stderr = float(rec["mean"]), float(rec["stderr"])
        if n != int(_flag(argv, "--dim")) or samples != int(_flag(argv, "--samples")):
            return [f"record is for N={n}, samples={samples}"]
        if not (_finite(mean, stderr) and stderr > 0):
            return [f"mean {mean!r} or stderr {stderr!r} is not finite and positive"]
        expected = (n - 1) / (n + 1)
        if not abs(mean - expected) <= 4 * stderr:
            return [f"mean {mean!r} is more than 4 stderr from {expected!r}"]
        return []

    def _tail(self, argv, outcome):
        rec = _csv_record(outcome.stdout, TAIL_HEADER)
        point = (_flag(argv, "--ensemble"), int(_flag(argv, "--dim")),
                 float(_flag(argv, "--epsilon")))
        samples = int(_flag(argv, "--samples"))
        if ((rec["ensemble"], int(rec["N"]), float(rec["epsilon"])) != point
                or int(rec["samples"]) != samples):
            return [f"record is for {rec['ensemble']} N={rec['N']} epsilon={rec['epsilon']} "
                    f"with {rec['samples']} samples"]
        if point not in TAIL_MAX_EXCEEDANCES:
            return [f"no calibrated tail frequency for {point}"]
        frequency, bound = float(rec["frequency"]), float(rec["bound"])
        expected = pure_tail_bound(point[1], point[2])
        if not (_finite(bound) and abs(bound - expected) <= 1e-12 * expected):
            return [f"bound {bound!r} differs from 2 exp(-N^3 eps^2 / (72 pi^3 ln 2)) "
                    f"= {expected!r}"]
        if not (_finite(frequency)
                and 0.0 <= frequency * samples <= TAIL_MAX_EXCEEDANCES[point]):
            return [f"frequency {frequency!r} is {frequency * samples:g} exceedances in "
                    f"{samples} samples; at most {TAIL_MAX_EXCEEDANCES[point]} are plausible"]
        return []

    def _figure1(self, argv, outcome):
        csv_path, svg_path = _flag(argv, "--out"), _flag(argv, "--svg")
        max_exp, samples = int(_flag(argv, "--max-exp")), int(_flag(argv, "--samples"))
        expected_stdout = f"wrote {max_exp} rows to {csv_path} and chart to {svg_path}\n"
        if outcome.stdout.decode() != expected_stdout:
            return [f"unexpected stdout {outcome.stdout[:200]!r}"]
        csv, svg = outcome.files.get(csv_path), outcome.files.get(svg_path)
        if csv is None or svg is None:
            return ["figure1 did not write its CSV and SVG"]
        if not (svg.startswith(b"<?xml") and svg.rstrip().endswith(b"</svg>")):
            return ["SVG chart is truncated or not an SVG document"]
        lines = csv.decode().splitlines()
        if lines[0] != FIGURE1_HEADER or len(lines) != max_exp + 1:
            return [f"CSV has header {lines[0]!r} and {len(lines) - 1} rows"]
        problems = []
        for m, line in enumerate(lines[1:], start=1):
            n, analytic, mean, stderr, count, _ = line.split(",")
            analytic, mean, stderr = float(analytic), float(mean), float(stderr)
            if int(n) != 2**m or int(count) != samples:
                problems.append(f"row {m} is for N={n} with {count} samples")
            elif not (_finite(analytic, mean, stderr) and stderr > 0
                      and abs(mean - analytic) <= 4 * stderr):
                problems.append(f"N={n}: mean {mean!r} +- {stderr!r} vs analytic {analytic!r}")
        return problems

    def _verify(self, argv, outcome):
        expected = VERIFY_CHECKS[_flag(argv, "--suite")]
        lines = outcome.stdout.decode().splitlines()
        summary = f"{expected}/{expected} checks passed "
        if (len(lines) != expected + 1 or not lines[-1].startswith(summary)
                or not all(line.startswith("[PASS] ") for line in lines[:-1])):
            return [f"expected {expected} PASS lines and {summary!r}; got {lines[-1:]!r}"]
        return []

    def _closed_form(self, argv, outcome):
        n = int(_flag(argv, "--dim"))
        record = json.loads(outcome.stdout)
        value = float(record["value"])
        if record["measure"] != _flag(argv, "--measure") or record["N"] != n:
            return [f"record is for {record['measure']} at N={record['N']}"]
        if n not in self._references:
            self._references[n] = mixed_average_reference(n)
        reference = self._references[n]
        tolerance = CLOSED_FORM_RTOL * max(1.0, abs(reference))
        if not (_finite(value) and abs(value - reference) <= tolerance):
            return [f"value {value!r} differs from the quadrature reference {reference!r}"]
        return []


def repeat_problems(first: Outcome, again: Outcome):
    """A repeat of an invocation with the same flags must give identical bytes."""
    if again.stdout != first.stdout:
        return ["stdout differs from the first pass"]
    if again.files != first.files:
        return ["output files differ from the first pass"]
    return []
