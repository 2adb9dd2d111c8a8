"""Command line surface: closed forms, sampling, Monte Carlo estimation, tail
experiments, the dimension sweep and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Numeric output uses the shortest round-tripping decimal representation, so
repeated runs with identical flags emit identical bytes.
"""

import argparse
import gc
import json
import math
import sys

from . import closed_forms, estimators, svg, verification
from .sampling import RngStream, haar_pure_batch, haar_unitary_batch, hs_mixed_batch

gc.freeze()  # exit-time collections skip the ≈22 000 imported objects: 29 → 9 ms a process

# closed-form measures of the dimension alone, by closed_forms function name
_CLOSED_FORMS = {"pure-avg": "avg_coherence_pure", "mixed-avg": "avg_coherence_mixed",
                 "cr-pure-avg": "avg_cr_pure", "cr-mixed-avg": "avg_cr_mixed",
                 "max": "max_coherence"}
_CLOSED_FORM_MEASURES = (*_CLOSED_FORMS, "subspace-dim")


def _checked(convert, accept, wanted):
    """argparse type: convert(text) and require accept(value), else "expected <wanted>"."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite positive number")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer seed in [0, 2^64)")


def _print_record(record, fmt):
    if fmt == "json":
        print(json.dumps(record))
    else:
        print(",".join(record.keys()))
        print(",".join(repr(v) if isinstance(v, float) else str(v)
                       for v in record.values()))


def _cmd_closed_form(args):
    if args.measure == "subspace-dim":
        if args.epsilon is None:
            raise ValueError("--epsilon is required for --measure subspace-dim")
        value = closed_forms.coherent_subspace_dim(args.dim, args.epsilon)
    else:
        if args.epsilon is not None:
            raise ValueError(f"--epsilon does not apply to --measure {args.measure}")
        value = getattr(closed_forms, _CLOSED_FORMS[args.measure])(args.dim)
    print(json.dumps({"measure": args.measure, "N": args.dim, "value": value}))
    return 0


def _cmd_mc(args):
    est = estimators.estimate_average(args.ensemble, args.dim, args.samples, args.seed,
                                      args.measure, args.chunk, args.threads)
    record = {"ensemble": args.ensemble, "N": args.dim, "measure": args.measure,
              "mean": est.mean, "stderr": est.stderr, "samples": est.n_samples, "seed": args.seed}
    _print_record(record, args.format)
    return 0


def _cmd_tail(args):
    tail = estimators.estimate_tail(args.ensemble, args.dim, args.epsilon, args.samples,
                                    args.seed, args.chunk, args.threads)
    record = {"ensemble": args.ensemble, "N": args.dim, "epsilon": args.epsilon,
              "frequency": tail.frequency, "bound": tail.bound,
              "samples": tail.n_samples, "seed": args.seed}
    _print_record(record, args.format)
    return 0


def _cmd_figure1(args):
    rows = estimators.figure1_sweep(args.max_exp, args.samples, args.seed,
                                    args.chunk, args.threads)
    path = args.out  # the file being written, named if writing fails
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("N,analytic,mc_mean,mc_stderr,n_samples,seed\n")
            handle.writelines(f"{row.n},{row.analytic!r},{row.mc_mean!r},{row.mc_stderr!r},"
                              f"{args.samples},{args.seed}\n" for row in rows)
        if (path := args.svg) is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(svg.render_sweep_svg(rows))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")
    print(f"wrote {len(rows)} rows to {args.out}"
          + (f" and chart to {args.svg}" if args.svg else ""))
    return 0


def _cmd_verify(args):
    results = verification.run_suite(args.suite, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed (suite={args.suite}, "
          f"seed={args.seed})")
    return 0 if failed == 0 else 1


def _cmd_sample(args):
    sample, power = {"pure": (haar_pure_batch, 1), "mixed": (hs_mixed_batch, 2),
                     "unitary": (haar_unitary_batch, 2)}[args.ensemble]
    estimators._schedule(1, 1, args.dim ** power, 1, "dimension")
    flat = sample(RngStream(args.seed, 0), args.dim, 1)[0].ravel()  # row-major
    print(json.dumps({"ensemble": args.ensemble, "dim": args.dim, "seed": args.seed,
                      "re": flat.real.tolist(), "im": flat.imag.tolist()}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="haar-coherence", description=(
        "Skew information-based coherence of random quantum states: closed forms, samplers, "
        "Monte Carlo experiments and verification oracles."))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text):
        p = sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    def chunk_and_threads(p):
        p.add_argument("--chunk", type=_positive_int, default=estimators.DEFAULT_CHUNK_SIZE)
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker threads, at most the usable CPUs")

    p = command("closed-form", _cmd_closed_form, "evaluate a closed-form quantity")
    p.add_argument("--dim", type=_positive_int, required=True, help="Hilbert space dimension")
    p.add_argument("--measure", choices=_CLOSED_FORM_MEASURES, required=True)
    p.add_argument("--epsilon", type=_positive_float, default=None,
                   help="deviation parameter (subspace-dim only)")

    p = command("mc", _cmd_mc, "Monte Carlo average of a coherence measure")
    p.add_argument("--ensemble", choices=estimators.ENSEMBLES, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--measure", choices=("skew", "rel-ent"), default="skew")
    chunk_and_threads(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("tail", _cmd_tail, "empirical tail frequency vs concentration bound")
    p.add_argument("--ensemble", choices=estimators.ENSEMBLES, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--epsilon", type=_positive_float, required=True)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed, default=42)
    chunk_and_threads(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("figure1", _cmd_figure1, "dimension sweep of the mixed-state average")
    p.add_argument("--max-exp", type=_positive_int, required=True,
                   help="sweep N = 2^m for m = 1..max-exp")
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG chart path")
    chunk_and_threads(p)

    p = command("verify", _cmd_verify, "run the verification suites")
    p.add_argument("--suite", choices=verification.SUITES, default="all")
    p.add_argument("--seed", type=_seed, default=42)

    p = command("sample", _cmd_sample, "draw one state or unitary as JSON")
    p.add_argument("--ensemble", choices=("pure", "mixed", "unitary"), required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=42)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except closed_forms.PrecisionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
