"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py

Runs every workload once at reduced size, untraced and traced, and checks
that each run emits exactly the metrics of BENCHMARK.json with their units.
Feeds the output checks real CLI outputs with NaN or wrong values injected,
and runs a deliberately failing invocation through the driver, both of which
must count as failed. Exits non-zero if any check of this file fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import checks
import run
import workloads

ROOT = run.ROOT
SCRATCH = ROOT / ".perfbench_tmp"


class SelfTestFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_metric_is_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--reduced")
            label = f"{workload} --trace {trace}"
            expect(out.returncode == 0, f"{label} exited {out.returncode}: {out.stderr[-500:]}")
            result = json.loads(out.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: {out.stderr[-500:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label}: metrics {sorted(set(got) ^ set(wanted))} "
                                  "missing, extra or with the wrong unit")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{label}: {name} = {value!r}")
                if trace == 0:
                    expect(value > 0, f"{label}: {name} = {value!r} is not positive")
            print(f"ok   {label}: {len(got)} metrics with units")


def _real_outcomes(tmp):
    """Reduced invocations of every workload, each run once by the CLI."""
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    samples = []
    for workload in workloads.NAMES:
        for inv in workloads.invocations(workload, 5, str(tmp), reduced=True):
            measured = run.spawn(inv.argv, inv.files, env, tmp)
            samples.append((inv, measured.outcome))
    return samples


def _mutations(argv, outcome):
    """Wrong versions of a correct outcome, each of which must fail."""
    text = outcome.stdout.decode()
    yield "non-zero exit", replace(outcome, returncode=1)
    yield "empty stdout", replace(outcome, stdout=b"")
    command = argv[0]
    if command in ("mc", "tail"):
        header, record = text.splitlines()
        fields = record.split(",")
        edits = [(3, "nan"), (3, "inf"), (3, "0.9")]
        if command == "tail":
            # Below the Levy bound but far more exceedances than plausible, a
            # bound off by 1%, and a record for another point.
            edits += [(3, "0.01"), (4, repr(float(fields[4]) * 1.01)), (1, "30"), (2, "0.25")]
        for column, value in edits:
            bad = fields[:column] + [value] + fields[column + 1:]
            yield f"{header.split(',')[column]}={value}", replace(
                outcome, stdout=f"{header}\n{','.join(bad)}\n".encode())
    elif command == "figure1":
        csv_path, svg_path = argv[argv.index("--out") + 1], argv[argv.index("--svg") + 1]
        yield "missing SVG", replace(outcome, files={**outcome.files, svg_path: None})
        yield "truncated SVG", replace(
            outcome, files={**outcome.files, svg_path: outcome.files[svg_path][:100]})
        lines = outcome.files[csv_path].decode().splitlines()
        for label, value in (("NaN", "nan"), ("wrong", "0.5")):
            row = lines[1].split(",")
            row[2] = value
            csv = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
            yield f"{label} mc_mean", replace(outcome,
                                              files={**outcome.files, csv_path: csv.encode()})
    elif command == "verify":
        yield "a FAIL line", replace(outcome, stdout=text.replace("[PASS]", "[FAIL]", 1).encode())
        yield "a missing check", replace(
            outcome, stdout="\n".join(text.splitlines()[1:]).encode() + b"\n")
    elif command == "closed-form":
        record = json.loads(text)
        for label, value in (("NaN", float("nan")), ("inf", float("inf")),
                             ("wrong", record["value"] + 1e-6)):
            yield f"{label} value", replace(
                outcome, stdout=json.dumps({**record, "value": value}).encode())


def test_checks_fail_closed(tmp):
    checker = checks.Checker()
    for inv, outcome in _real_outcomes(tmp):
        label = " ".join(inv.argv[:1] + inv.argv[1:3])
        expect(checker.problems(inv.argv, outcome) == [],
               f"{label}: correct output rejected: {checker.problems(inv.argv, outcome)}")
        for name, bad in _mutations(inv.argv, outcome):
            expect(checker.problems(inv.argv, bad) != [], f"{label}: {name} was accepted")
        changed = replace(outcome, stdout=outcome.stdout + b" ")
        expect(checks.repeat_problems(outcome, changed) != [],
               f"{label}: a repeat with different bytes was accepted")
        print(f"ok   {label}: correct output accepted, injected faults rejected")


def test_driver_counts_failures(tmp):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    good = workloads.invocations("closed-form-large", 1, str(tmp), reduced=True)[0]
    bad = workloads.Invocation(("mc", "--ensemble", "pure", "--dim", "0"), (), 0)
    _, attempted, failures, _ = run.run_fresh([good, bad], 0, env, tmp)
    expect(attempted == 2 and len(failures) == 1 and "--dim 0" in failures[0],
           f"driver reported {len(failures)} of {attempted} failed: {failures}")
    print("ok   driver: a failing invocation counts toward fail_rate")


def test_workload_seeds():
    for name in workloads.NAMES:
        a = workloads.invocations(name, 11, "out")
        expect(a == workloads.invocations(name, 11, "out"), f"{name}: seed 11 not repeatable")
    expect(workloads.invocations("pure-stream", 11, "out")
           != workloads.invocations("pure-stream", 12, "out"),
           "pure-stream ignores its seed")
    print("ok   workloads: the same seed gives the same invocations")


def test_refuses_without_sources(tmp):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(bare, "--workload", "pure-stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    expect(out.returncode != 0 and out.stdout == "",
           f"without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}")
    print("ok   without program sources the benchmark exits non-zero and prints no result")


def main():
    sys.path.insert(0, str(run.SRC))
    SCRATCH.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=SCRATCH, prefix="selftest-")
    tmp = run.Path(tmp_dir)
    tests = [test_workload_seeds, lambda: test_refuses_without_sources(tmp),
             lambda: test_checks_fail_closed(tmp), lambda: test_driver_counts_failures(tmp),
             test_every_metric_is_emitted]
    failed = 0
    try:
        for test in tests:
            try:
                test()
            except SelfTestFailure as exc:
                failed += 1
                print(f"FAIL {exc}")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(f"{len(tests) - failed}/{len(tests)} self-test groups passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
