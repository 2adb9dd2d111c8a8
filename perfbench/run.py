"""Benchmark of the haar-coherence CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
One client runs the workload's invocations as a closed loop: each pass runs
them in order, every command in a fresh interpreter, and passes repeat while
another one is expected to end nearer to `--seconds` than stopping would.
Every output is checked.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the same invocations run in this process through
`cli.main(argv)`, alternating passes with and without span wrappers, and the
run reports the per-layer metrics instead. The last line of stdout is one
JSON object; the lines before it are a readable summary and the manifest.
"""

import argparse
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
SPANS_DIR = ROOT / ".perfbench_out"

# Removed from the environment so the program runs at a user's default
# threading; a later change that pins threads inside the program shows here.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "HAAR_COHERENCE_THREADS")

INVOCATION_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 5
READY = b"perfbench-ready "


@dataclass(frozen=True)
class Measured:
    wall: float          # seconds, start to exit
    setup: float         # seconds until the CLI module was imported, or None
    rss_mb: float        # peak resident memory of the process, or None
    outcome: checks.Outcome


def _read_files(paths):
    files = {}
    for path in paths:
        try:
            files[path] = Path(path).read_bytes()
        except FileNotFoundError:
            files[path] = None
    return files


def _remove(paths):
    for path in paths:
        Path(path).unlink(missing_ok=True)


def spawn(argv, files, env, tmp) -> Measured:
    """Run one CLI command in a fresh interpreter and wait for it."""
    _remove(files)
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    setup = None
    if stderr.startswith(READY):
        line, _, stderr = stderr.partition(b"\n")
        setup = float(line[len(READY):]) - start
    outcome = checks.Outcome(proc.returncode, out_path.read_bytes(), stderr, _read_files(files))
    return Measured(wall, setup, usage.ru_maxrss / 1024, outcome)


def in_process(cli, argv, files) -> Measured:
    """Run one CLI command through `cli.main` in this process."""
    _remove(files)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    outcome = checks.Outcome(code, stdout.getvalue().encode(), stderr.getvalue().encode(),
                             _read_files(files))
    return Measured(wall, None, None, outcome)


def judge(invs, passes):
    """Check every outcome, and every repeat against the first pass.

    Returns (attempted, list of failure messages), one message per failed
    invocation."""
    checker = checks.Checker()
    failures = []
    for index, measured in enumerate(passes):
        for inv, first, run in zip(invs, passes[0], measured):
            problems = checker.problems(inv.argv, run.outcome)
            if index > 0:
                problems += checks.repeat_problems(first.outcome, run.outcome)
            if problems:
                failures.append(f"pass {index} `{' '.join(inv.argv)}`: {'; '.join(problems)}")
    return sum(len(p) for p in passes), failures


def run_fresh(invs, seconds, env, tmp):
    """Closed loop of fresh-process passes.

    Returns (metrics, invocations attempted, failure messages, summary lines)."""
    deadline = time.monotonic() + seconds
    passes = []
    while True:
        passes.append([spawn(inv.argv, inv.files, env, tmp) for inv in invs])
        walls = [sum(m.wall for m in p) for p in passes]
        # Another pass only if it brings the expected end nearer the deadline.
        if time.monotonic() + statistics.median(walls) / 2 >= deadline:
            break
    setups = [m.setup for p in passes for m in p if m.setup is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        extra = spawn((), (), env, tmp)
        if extra.setup is None:
            raise RuntimeError("importing haar_coherence.cli failed: "
                               + extra.outcome.stderr.decode(errors="replace"))
        setups.append(extra.setup)
    samples = sum(inv.samples for inv in invs)
    rates = [samples / (sum(m.wall for m in p) - sum(m.setup or 0.0 for m in p))
             for p in passes] if samples else []
    attempted, failures = judge(invs, passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(m.rss_mb for m in p) for p in passes),
    }
    lines = [
        f"  wall_s         {metrics['wall_s']:.4f} s   median of {len(walls)} passes"
        + _tail_note(walls),
        f"  samples_per_s  " + (f"{statistics.median(rates):.6g} 1/s   {samples} samples per "
                                "pass, over wall time less set-up" if rates
                                else "n/a          no Monte Carlo samples in this workload"),
        f"  setup_s        {metrics['setup_s']:.4f} s   median of {len(setups)} imports",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB   median over passes of the "
        "largest CLI process",
        f"  fail_rate      {len(failures) / attempted:.4f} ratio   "
        f"{len(failures)} of {attempted} invocations failed",
    ]
    return metrics, attempted, failures, lines


def _tail_note(walls):
    """The highest whole percentile above the median with ten passes beyond it."""
    pct = math.floor(100 * (1 - 10 / len(walls)))
    if pct <= 50:
        return "; no percentile above the median has 10 passes beyond it"
    return f"; p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s"


def run_traced(name, invs, seconds):
    """Alternate untraced and traced in-process passes; returns the same
    tuple as `run_fresh`, with per-layer metrics."""
    start = time.perf_counter()
    from haar_coherence import cli
    import_s = time.perf_counter() - start
    import haar_coherence
    import numpy
    from haar_coherence import (closed_forms, coherence, estimators, linalg, oracles,
                                sampling, svg, verification)

    table_cache = closed_forms.validated_half_moment_table
    modules = (haar_coherence, cli, closed_forms, coherence, estimators, linalg, oracles,
               sampling, svg, verification)
    tracer = spans.Tracer()
    passes, walls = [], {False: [], True: []}
    hits = misses = 0
    deadline = time.monotonic() + seconds
    for traced in itertools.cycle((False, True)):
        if traced:
            tracer.install(modules, sampling.RngStream, numpy.linalg)
        measured = []
        try:
            for inv in invs:
                tracer.invocation += 1
                measured.append(in_process(cli, inv.argv, inv.files))
                if traced:
                    info = table_cache.cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
                # A fresh CLI process starts with an empty moment-table cache.
                table_cache.cache_clear()
        finally:
            tracer.uninstall()
        passes.append(measured)
        walls[traced].append(sum(m.wall for m in measured))
        expected = max(statistics.median(w) for w in walls.values() if w)
        if walls[True] and time.monotonic() + expected / 2 >= deadline:
            break
    attempted, failures = judge(invs, passes)
    check_names = [n for n in vars(verification) if n.startswith("check_")]
    traced_wall = sum(walls[True])
    metrics = spans.layer_metrics(tracer.spans, len(walls[True]), check_names)
    metrics["cli.import_s"] = import_s
    metrics["closed_forms.table_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.coverage"] = spans.attributed_time(tracer.spans) / traced_wall
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    SPANS_DIR.mkdir(exist_ok=True)
    spans.write_spans(SPANS_DIR / f"spans-{name}.csv", tracer.spans)
    lines = [f"  {len(walls[True])} traced and {len(walls[False])} untraced in-process passes, "
             f"{len(tracer.spans)} spans written to {SPANS_DIR.name}/spans-{name}.csv",
             f"  {len(failures)} of {attempted} invocations failed"]
    return metrics, attempted, failures, lines


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(removed_env):
    """Versions, BLAS build, CPU and thread settings of this run."""
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
        lapack = {k: deps["lapack"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = lapack = None
    return {
        "commit": _git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "lapack": lapack,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "thread_env_removed": removed_env,
        "thread_env_in_children": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _metric_spec(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)["per_layer" if trace else "end_to_end"]


class Terminated(BaseException):
    """SIGTERM arrived; unwinding kills and reaps the running CLI process.

    Not an Exception or SystemExit, which the in-process runner catches."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reduced", action="store_true",
                        help="shrink every invocation (used by the self-test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "haar_coherence" / "cli.py").is_file():
        print(f"error: no haar-coherence sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = _metric_spec(args.trace)
    # An installed package has byte-compiled modules; so does the checkout.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "haar_coherence")],
                   check=True, stdout=subprocess.DEVNULL)

    removed = {k: os.environ.pop(k) for k in THREAD_ENV if k in os.environ}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    try:
        invs = workloads.invocations(args.workload, args.seed, str(tmp), args.reduced)
        if args.trace:
            metrics, attempted, failures, lines = run_traced(args.workload, invs, args.seconds)
        else:
            metrics, attempted, failures, lines = run_fresh(invs, args.seconds, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}" + (" reduced" if args.reduced else ""))
    print("\n".join(lines))
    print("manifest " + json.dumps(manifest(removed), sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
