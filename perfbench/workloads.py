"""The benchmark's workloads: which CLI invocations one pass runs.

Each workload loads one layer of haar-coherence and bypasses another; the
reasons are recorded in README.md next to this file. Invocations are derived
from the workload seed alone, so the same seed always gives the same argv.
"""

import hashlib
from dataclasses import dataclass

NAMES = ("pure-stream", "mixed-sweep", "verify-all", "closed-form-large")

# `verify` runs 19 statistical gates; at a random seed about one in twenty
# fails the sampler-consistency KS gate (tol 0.02 at 10^4 samples), so the
# workload keeps the CLI's default seed, the one a user running the command
# gets, instead of deriving one from the workload seed.
VERIFY_SEED = 42


@dataclass(frozen=True)
class Invocation:
    argv: tuple    # arguments after the `haar-coherence` program name
    files: tuple   # output files the command must write
    samples: int   # Monte Carlo samples the command reports, 0 when none


def cli_seed(seed: int, label: str) -> int:
    """Per-invocation `--seed`, a fixed hash of the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def invocations(name: str, seed: int, out_dir: str, reduced: bool = False):
    """One pass of workload `name`; `out_dir` receives the files it writes.

    `reduced` shrinks every invocation so that the self-test runs quickly.
    """
    if name == "pure-stream":
        mc, tail = (200_000, 20_000) if reduced else (8_000_000, 1_000_000)
        return [
            Invocation(("mc", "--ensemble", "pure", "--dim", "2", "--samples", str(mc),
                        "--seed", str(cli_seed(seed, "mc"))), (), mc),
            Invocation(("tail", "--ensemble", "pure", "--dim", "29", "--epsilon", "0.3",
                        "--samples", str(tail), "--seed", str(cli_seed(seed, "tail"))),
                       (), tail),
        ]
    if name == "mixed-sweep":
        max_exp, samples = (3, 2_000) if reduced else (5, 10_000)
        csv, svg = f"{out_dir}/figure1.csv", f"{out_dir}/figure1.svg"
        return [Invocation(("figure1", "--max-exp", str(max_exp), "--samples", str(samples),
                            "--threads", "2", "--seed", str(cli_seed(seed, "figure1")),
                            "--out", csv, "--svg", svg),
                           (csv, svg), max_exp * samples)]
    if name == "verify-all":
        suite = "invariants" if reduced else "all"
        return [Invocation(("verify", "--suite", suite, "--seed", str(VERIFY_SEED)), (), 0)]
    if name == "closed-form-large":
        dims = (16, 24, 32) if reduced else (128, 192, 256)
        return [Invocation(("closed-form", "--measure", "mixed-avg", "--dim", str(n)), (), 0)
                for n in dims]
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
