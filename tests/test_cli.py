import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from haar_coherence import cli, estimators, sampling, verification
from haar_coherence import closed_forms as cf


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closed_form_pure_avg(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--dim", "3", "--measure", "pure-avg")
    assert code == 0
    record = json.loads(out)
    assert record == {"measure": "pure-avg", "N": 3, "value": 0.5}


def test_public_names():
    import haar_coherence

    names = haar_coherence.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(haar_coherence, name) for name in names)
    removed = {"Eigensystem", "eig_hermitian", "sample_haar_pure", "sample_hs_mixed",
               "sample_haar_unitary", "QuadratureRule"}
    assert removed.isdisjoint(names)
    # no result type echoes its inputs
    assert [[f.name for f in dataclasses.fields(t)] for t in (
        haar_coherence.MomentTable, haar_coherence.TailEstimate, haar_coherence.SweepRow)] == [
        ["values"], ["frequency", "bound", "n_samples", "center"],
        ["n", "analytic", "mc_mean", "mc_stderr"]]


def fresh_env():
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("dim, code", [("2", 0), ("0", 2)])
def test_module_entry_point_runs_and_fails_closed(dim, code):
    # `python -m haar_coherence.cli` must run the command, not import and exit 0
    proc = subprocess.run([sys.executable, "-m", "haar_coherence.cli", "closed-form",
                           "--measure", "pure-avg", "--dim", dim],
                          env=fresh_env(), capture_output=True, text=True)
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout) == {"measure": "pure-avg", "N": 2,
                                           "value": 1.0 / 3.0}
    else:
        assert proc.stdout == "" and "positive integer" in proc.stderr


def test_only_the_cli_freezes_the_collector():
    # the library leaves a user's collector as it was; importing the command line surface
    # moves every object so far to the collector's permanent generation
    script = ("import gc, sys\n"
              "import haar_coherence\n"
              "from haar_coherence import closed_forms, estimators, oracles, sampling, "
              "verification\n"
              "assert 'haar_coherence.cli' not in sys.modules\n"
              "library = gc.get_freeze_count()\n"
              "import haar_coherence.cli\n"
              "print(library, gc.get_freeze_count())\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, check=True)
    library, cli_imported = map(int, proc.stdout.split())
    assert library == 0 and cli_imported > 0


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: no import statement of the package,
    # function-level ones included, names scipy
    imported = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert ("coherence.py", "numpy") in imported
    assert [(name, module) for name, module in imported
            if module.split(".")[0] == "scipy"] == []


# Runs CLI commands one after the other in a fresh interpreter in which every
# import of scipy raises ImportError; prints one [exit code, stdout] per command.
_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from haar_coherence import cli

outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


def test_rel_ent_runs_without_scipy_and_keeps_its_bytes(simd_class):
    # the two rel-ent golden cases of test_golden.py, per SIMD class
    pure = ["mc", "--ensemble", "pure", "--dim", "29", "--samples", "20000", "--seed", "1",
            "--measure", "rel-ent"]
    mixed = ["mc", "--ensemble", "mixed", "--dim", "2", "--samples", "100000", "--seed", "3",
             "--measure", "rel-ent"]
    pure_mean, mixed_mean = {"avx512": ("2.9620892878915224", "0.24949364458926387"),
                             "baseline": ("2.962089287891522", "0.24949364458926385")}[simd_class]
    header = "ensemble,N,measure,mean,stderr,samples,seed\n"
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps([pure, mixed])],
                          env=fresh_env(), capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [
        [0, header + f"pure,29,rel-ent,{pure_mean},0.0006734778905225037,20000,1\n"],
        [0, header + f"mixed,2,rel-ent,{mixed_mean},0.0005416966895107071,100000,3\n"],
    ]


def test_closed_form_mixed_avg(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--dim", "2", "--measure", "mixed-avg")
    assert code == 0
    value = json.loads(out)["value"]
    assert value == pytest.approx(1.0 / 3.0 - math.pi / 16, abs=1e-12)
    # floats round-trip through the JSON text exactly
    assert repr(value) in out


@pytest.mark.parametrize("n", [400, 512])
def test_closed_form_mixed_avg_validated_past_quadrature_underflow(capsys, n):
    # e^{-x/2} at the largest rule nodes is subnormal from n = 362 and 0 from
    # n = 381; the gate must still pass, and the value sit on the
    # Marchenko-Pastur asymptote.
    code, out, err = run_cli(capsys, "closed-form", "--dim", str(n), "--measure", "mixed-avg")
    assert code == 0, err
    estimate = 1.0 - 64.0 / (9.0 * math.pi**2) - 0.28 / n
    assert abs(json.loads(out)["value"] - estimate) < 1e-4


def test_closed_form_mixed_avg_refuses_oversized_table(capsys, monkeypatch):
    # numpy unreachable from closed_forms: allocating before the check would raise
    monkeypatch.setattr(cf, "np", None)
    code, out, err = run_cli(capsys, "closed-form", "--dim", "100000", "--measure", "mixed-avg")
    assert code == 2 and out == ""
    assert "exceeds the supported maximum 1024" in err


def test_closed_form_max(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--dim", "5", "--measure", "max")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.8)


def test_closed_form_subspace_dim(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--dim", "40000",
                           "--measure", "subspace-dim", "--epsilon", "2e-5")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_closed_form_subspace_domain_error(capsys):
    code, _, err = run_cli(capsys, "closed-form", "--dim", "100",
                           "--measure", "subspace-dim", "--epsilon", "0.5")
    assert code == 2
    assert "epsilon" in err


def test_closed_form_epsilon_requirements(capsys):
    code, _, err = run_cli(capsys, "closed-form", "--dim", "10", "--measure", "subspace-dim")
    assert code == 2 and "--epsilon" in err
    code, _, err = run_cli(capsys, "closed-form", "--dim", "10", "--measure", "max",
                           "--epsilon", "0.01")
    assert code == 2 and "does not apply" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["closed-form", "--dim", "0", "--measure", "max"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["mc", "--ensemble", "pure", "--dim", "2", "--samples", "nan"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["tail", "--ensemble", "pure", "--dim", "4", "--epsilon", "inf"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "everything"])
    assert info.value.code == 2
    capsys.readouterr()


def test_verify_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    # one NaN state makes the validated kernels raise inside check_convexity;
    # the suite still prints every check and exits 1, not 2
    draw = verification.hs_mixed_batch

    def with_nan_state(rng, n, count):
        states = draw(rng, n, count)
        states[count // 2] = np.nan
        return states

    monkeypatch.setattr(verification, "hs_mixed_batch", with_nan_state)
    code, out, _ = run_cli(capsys, "verify", "--suite", "invariants")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 12
    assert lines[-1].endswith("checks passed (suite=invariants, seed=42)")
    convexity = [line for line in lines if "convexity" in line]
    assert len(convexity) == 1 and convexity[0].startswith("[FAIL]")


def test_mc_csv_output_and_determinism(capsys):
    argv = ["mc", "--ensemble", "pure", "--dim", "2", "--samples", "4000", "--seed", "7"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    header, row = first.strip().splitlines()
    assert header == "ensemble,N,measure,mean,stderr,samples,seed"
    fields = row.split(",")
    assert fields[0] == "pure" and fields[1] == "2" and fields[2] == "skew"
    assert abs(float(fields[3]) - 1.0 / 3.0) < 0.02
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_mc_pure_dimension_one_is_exactly_zero(capsys, measure):
    # a one-dimensional state has population exactly 1: no round-off survives
    code, out, _ = run_cli(capsys, "mc", "--ensemble", "pure", "--dim", "1",
                           "--samples", "5000", "--seed", "3", "--measure", measure,
                           "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert repr(record["mean"]) == "0.0" and repr(record["stderr"]) == "0.0"


def test_mc_json_output(capsys):
    code, out, _ = run_cli(capsys, "mc", "--ensemble", "mixed", "--dim", "2",
                           "--samples", "3000", "--seed", "3", "--format", "json",
                           "--measure", "rel-ent")
    assert code == 0
    record = json.loads(out)
    assert record["ensemble"] == "mixed" and record["measure"] == "rel-ent"
    assert record["samples"] == 3000
    assert abs(record["mean"] - 0.25) < 0.02


def test_mc_threads_flag_does_not_change_result(capsys, many_cpus):
    base = ["mc", "--ensemble", "mixed", "--dim", "3", "--samples", "4096", "--seed", "11"]
    _, serial, _ = run_cli(capsys, *base)
    _, threaded, _ = run_cli(capsys, *base, "--threads", "4")
    assert serial == threaded


def test_threads_default_to_one_and_sample_takes_no_format(capsys):
    parser = cli.build_parser()
    for argv in (["mc", "--ensemble", "pure", "--dim", "2"],
                 ["tail", "--ensemble", "pure", "--dim", "2", "--epsilon", "0.1"],
                 ["figure1", "--max-exp", "1", "--out", "sweep.csv"]):
        assert parser.parse_args(argv).threads == 1
    with pytest.raises(SystemExit) as exit_:
        parser.parse_args(["sample", "--ensemble", "pure", "--dim", "2", "--format", "json"])
    assert exit_.value.code == 2 and "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("mc", "--ensemble", "pure", "--dim", "30000000", "--chunk", "1000000",
     "--samples", "1000000"),
    ("mc", "--ensemble", "mixed", "--dim", "100000", "--samples", "2"),
    ("mc", "--ensemble", "mixed", "--dim", "4000", "--samples", "4", "--chunk", "2",
     "--threads", "2", "--measure", "rel-ent"),
    ("tail", "--ensemble", "pure", "--dim", "30000000", "--epsilon", "0.1",
     "--chunk", "1000", "--samples", "1000"),
    ("tail", "--ensemble", "mixed", "--dim", "100000", "--epsilon", "0.1"),
])
def test_mc_and_tail_refuse_oversized_draw_blocks_up_front(capsys, monkeypatch, many_cpus, argv):
    # numpy unreachable from the engine and the samplers: any allocation
    # before the check would raise instead of exiting 2
    monkeypatch.setattr(estimators, "np", None)
    monkeypatch.setattr(sampling, "np", None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "GiB limit" in err


@pytest.mark.parametrize("ensemble, dim", [("mixed", "1000000"), ("unitary", "1000000"),
                                           ("mixed", "4730"), ("pure", "30000000")])
def test_sample_refuses_oversized_states_up_front(capsys, monkeypatch, ensemble, dim):
    # the guard of mc and tail, at N or N² entries per state: mixed and unitary
    # N <= 4729; numpy unreachable, so any allocation would raise instead
    monkeypatch.setattr(estimators, "np", None)
    monkeypatch.setattr(sampling, "np", None)
    code, out, err = run_cli(capsys, "sample", "--ensemble", ensemble, "--dim", dim)
    assert code == 2 and out == ""
    assert "GiB limit" in err and "Traceback" not in err


def test_tail_record(capsys):
    code, out, _ = run_cli(capsys, "tail", "--ensemble", "pure", "--dim", "29",
                           "--epsilon", "0.3", "--samples", "20000", "--seed", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "ensemble,N,epsilon,frequency,bound,samples,seed"
    fields = row.split(",")
    from haar_coherence.closed_forms import tail_bound_pure
    assert float(fields[4]) == tail_bound_pure(29, 0.3)
    assert float(fields[3]) <= float(fields[4])


def test_figure1_files(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    out_svg = tmp_path / "sweep.svg"
    argv = ["figure1", "--max-exp", "3", "--samples", "2000", "--seed", "9",
            "--out", str(out_csv), "--svg", str(out_svg)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "N,analytic,mc_mean,mc_stderr,n_samples,seed"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "8"]
    first_bytes = out_csv.read_bytes()
    analytic = float(lines[1].split(",")[1])
    assert analytic == pytest.approx(1.0 / 3.0 - math.pi / 16, abs=1e-12)

    root = ET.fromstring(out_svg.read_text())
    assert root.tag.endswith("svg")
    assert root.get("viewBox") is not None
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:polyline", ns)) == 1
    assert len(root.findall(".//s:circle", ns)) == 3
    assert not root.findall(".//s:script", ns)

    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out_csv.read_bytes() == first_bytes


def test_figure1_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure1", "--max-exp", "1", "--samples", "100",
                           "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path / 'missing' / 'x.csv'}: ")


def test_figure1_unwritable_svg_path_names_it(tmp_path, capsys):
    svg_path = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(capsys, "figure1", "--max-exp", "1", "--samples", "100",
                             "--out", str(tmp_path / "x.csv"), "--svg", str(svg_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {svg_path}: ")
    assert (tmp_path / "x.csv").read_text().startswith("N,analytic,")


def test_size_refusals_advise_only_what_the_command_takes(capsys):
    # sample takes neither a chunk size nor a thread count; mc and tail take both
    code, out, err = run_cli(capsys, "sample", "--ensemble", "mixed", "--dim", "1000000")
    assert code == 2 and out == "" and "GiB limit" in err
    assert err.endswith("limit; use a smaller dimension\n")
    for command in (("mc",), ("tail", "--epsilon", "0.1")):
        code, out, err = run_cli(capsys, *command, "--ensemble", "mixed", "--dim", "100000")
        assert code == 2 and out == "" and "GiB limit" in err
        assert err.endswith("; use a smaller dimension, chunk size or thread count\n")


@pytest.mark.parametrize("max_exp", ["11", "1000000000"])
def test_figure1_refuses_oversized_sweep_up_front(tmp_path, capsys, monkeypatch, max_exp):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started before the size check")

    monkeypatch.setattr(estimators, "estimate_average", no_sampling)
    out_csv = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "figure1", "--max-exp", max_exp, "--out", str(out_csv))
    assert code == 2
    assert "exceeds the largest moment table" in err
    assert not out_csv.exists()


def test_sample_pure_and_mixed(capsys):
    code, out, _ = run_cli(capsys, "sample", "--ensemble", "pure", "--dim", "2", "--seed", "3")
    assert code == 0
    record = json.loads(out)
    norm_sq = sum(r * r + i * i for r, i in zip(record["re"], record["im"]))
    assert norm_sq == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run_cli(capsys, "sample", "--ensemble", "mixed", "--dim", "2", "--seed", "3")
    record = json.loads(out)
    assert record["re"][0] + record["re"][3] == pytest.approx(1.0, abs=1e-12)
    assert record["im"][0] == pytest.approx(0.0, abs=1e-15)

    code, out, _ = run_cli(capsys, "sample", "--ensemble", "unitary", "--dim", "3", "--seed", "3")
    record = json.loads(out)
    import numpy as np
    u = (np.array(record["re"]) + 1j * np.array(record["im"])).reshape(3, 3)
    assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10


def test_sample_determinism(capsys):
    argv = ["sample", "--ensemble", "mixed", "--dim", "4", "--seed", "12"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
