"""Golden fixtures for the bit-level reproducibility contract.

The byte-exact values below were recorded once and must not drift: they pin
the RNG stream, the series moment tables and the LAPACK-free CLI paths
(pure-state mean, tail, sample of pure states and of unitaries up to
N = 3, which are orthonormalized by Gram-Schmidt, mixed skew at N = 2, and
the mixed-state closed form, whose value comes from the prefix-sum bracket
alone; the quadrature only gates it). Paths that go through LAPACK (eigh, QR) are pinned by
thread-count invariance instead, because their last bits may differ between
BLAS builds.

Bit contract v2: pure-state Monte Carlo takes each state's populations from
the Exponential(1) radius block alone and skips the phase block. The cases
marked v2 were recorded under it; the older ones did not move.

Bit contract v3: up to N = 3 the Hilbert-Schmidt sampler forms its Gram
matrices entry by entry instead of by matmul, so it calls no BLAS there; the
mixed `sample` cases marked v3 pin it. No earlier case moved.

Bit contract v4: that elementwise Gram step runs in real arithmetic, so each
state's bits depend only on its own draws, not on the sampler's slice length.
Mixed output at N = 2 and 3 moved in its last digits; the cases marked v4 pin
it. Nothing else moved.

Bit contract v5: the phase e^(2 pi i u) of each complex normal is (h - 1) + i t h
with t = tan(pi u) and h = 2/(1 + t^2) instead of numpy's complex exp, and mixed
skew at N = 2 takes the diagonal of sqrt(rho) from the closed-form eigenvalues
instead of LAPACK's eigh. Only phase consumers moved (mixed output, sample of
every ensemble, the RngStream complex-normal digests), in their last digits; the
cases marked v5 pin them. The mixed skew cases at N = 2 rest on IEEE arithmetic
and numpy's SIMD loops alone, so they hold on any BLAS build.

A chunk drawn in several blocks merges its blocks' (count, mean, M2) in
stream order, as the oracles do; the one case of such a chunk was recorded
that way. Chunks of one block, every other case, did not move.

The bytes are fixed per (BLAS build, SIMD class), on x86-64 Linux with
glibc. Where the CPU has AVX-512, numpy 2.4 sends float64 log1p and tan to
AVX-512 loops whose results differ from glibc's in the last bit of some
inputs, so `RngStream.exponential` -log1p(-u), the radii and the phases of
every complex normal and all that rests on them differ from a host without it
(155 015 of 2^21 exponential draws of stream (42, 0), each by one ulp; the
uniforms and sqrt do not differ). The cases were recorded on an AVX-512 host;
`BASELINE_CLASS` holds the value of each case that differs on the baseline
class, recorded on the same host under NPY_DISABLE_CPU_FEATURES=X86_V4. The
`simd_class` fixture picks the class by probing np.log1p against math.log1p,
and a test checks that np.tan falls in the same class, so every case runs on
either class.
"""

import hashlib
import math

import numpy as np
import pytest

from haar_coherence import cli
from haar_coherence.closed_forms import moment_table
from haar_coherence.sampling import RngStream


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


# the baseline-class value of each case below that differs there, keyed by its AVX-512 value
BASELINE_CLASS = {
    "11a63f39ca49a0601498dd643247d0711b0dace2c262e54c8a4dd6af8f09a902":
        "c5b5353a2e016192ad8835215704bb2d624c00ba6023c851da59cca86edb128b",
    "577a8d198fc7a73dc1ca7a84f107d806c5129f4a9e55dde4337077def4b49fc0":
        "cac1294283bb4c0b00e8126647a99f9a70a11e7c044b6cb0e530d24177973061",
    "b0dc38cd1c5198ed2dfa2987e492b562cc4057da501f704126f8d592d3b7359a":
        "06d7f596593cc15443f91741f9b4d8d418a1aa073ef922938813f222e943bfcf",
    "93dda082688297fb55e4c3117a6f6201a8f63cd243e8f4751bd5682e18a53c2f":
        "0a80f52c5f050e218c63e3955e99e0118e58324bf29832e9751ad97f12d21881",
    "ensemble,N,measure,mean,stderr,samples,seed\n"
    "pure,29,rel-ent,2.9620892878915224,0.0006734778905225037,20000,1\n":
        "ensemble,N,measure,mean,stderr,samples,seed\n"
        "pure,29,rel-ent,2.962089287891522,0.0006734778905225037,20000,1\n",
    "mixed,2,rel-ent,0.24949364458926387,0.0005416966895107071,100000,3\n":
        "mixed,2,rel-ent,0.24949364458926385,0.0005416966895107071,100000,3\n",
}


def golden(expected, simd_class):
    """The recorded value of a case on this host's SIMD class."""
    return BASELINE_CLASS.get(expected, expected) if simd_class == "baseline" else expected


@pytest.mark.parametrize("seed,index,n,digest", [  # v5
    (42, 3, 4096, "11a63f39ca49a0601498dd643247d0711b0dace2c262e54c8a4dd6af8f09a902"),
    (2**64 - 1, 7, 1000, "577a8d198fc7a73dc1ca7a84f107d806c5129f4a9e55dde4337077def4b49fc0"),
])
def test_complex_normal_stream_digest(seed, index, n, digest, simd_class):
    raw = RngStream(seed, index).complex_normal(n).tobytes()
    assert hashlib.sha256(raw).hexdigest() == golden(digest, simd_class)


def test_tan_takes_the_simd_class_of_log1p(simd_class):
    # the phases rest on np.tan and the radii on np.log1p; the goldens of a class hold only
    # where numpy sends both to that class's loops, so a numpy that splits them fails here
    x = np.linspace(-0.9, 0.9, 1001)
    differs = np.tan(x).tolist() != [math.tan(v) for v in x.tolist()]
    assert differs == (simd_class == "avx512")


@pytest.mark.parametrize("method,seed,index,n,digest", [
    ("uniform", 42, 3, 4096,
     "4b7e67c99102c8e06ad1f2c4123ea6cf22be4d710305ae5a84f7c8e45ceec54c"),
    ("uniform", 2**64 - 1, 7, 1000,
     "d80af28d758fcd6b2776214dcbd3334194bb149a1cfb22d9231c65bb13fbaeb9"),
    ("exponential", 42, 3, 4096,
     "b0dc38cd1c5198ed2dfa2987e492b562cc4057da501f704126f8d592d3b7359a"),
    ("exponential", 2**64 - 1, 7, 1000,
     "93dda082688297fb55e4c3117a6f6201a8f63cd243e8f4751bd5682e18a53c2f"),
])
def test_real_stream_digest(method, seed, index, n, digest, simd_class):
    raw = getattr(RngStream(seed, index), method)(n).tobytes()
    assert hashlib.sha256(raw).hexdigest() == golden(digest, simd_class)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 29, 2048, 29 * 1023, 29 * 1024])
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_skip_lands_where_the_draw_would(offset, k):
    # Philox buffers four outputs per counter step: from every buffer offset,
    # skipping k outputs must leave the stream where drawing them does
    skipped, drawn = RngStream(23, offset), RngStream(23, offset)
    skipped.uniform(offset)
    drawn.uniform(offset)
    skipped._skip(k)
    drawn.uniform(k)
    assert np.array_equal(skipped.uniform(9), drawn.uniform(9))


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_stream_counts_the_outputs_philox_buffers(offset):
    # uniform is (raw >> 11) 2^-53 of the next raw outputs, and after any mix of
    # draws and skips the stream's count of buffered outputs is Philox's own
    rng, twin = RngStream(31, offset), np.random.Philox()
    steps = [("uniform", offset), ("uniform", 1), ("complex_normal", 3), ("_skip", 6),
             ("exponential", 5), ("_skip", 0), ("uniform", 70001), ("_skip", 4097),
             ("complex_normal", 65537), ("exponential", 2), ("_skip", 3), ("uniform", 8193)]
    for method, k in steps:
        twin.state = rng._bits.state
        values = getattr(rng, method)(k)
        if method == "uniform":
            assert np.array_equal(values, (twin.random_raw(k) >> np.uint64(11)) * 2.0**-53)
        assert rng._left == 4 - rng._bits.state["buffer_pos"]


@pytest.mark.parametrize("argv,expected", [
    (["mc", "--ensemble", "pure", "--dim", "3", "--samples", "5000", "--seed", "7"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,3,skew,0.4987556621958281,0.0018367642378761529,5000,7\n"),
    (["mc", "--ensemble", "pure", "--dim", "4", "--samples", "3000", "--seed", "9",
      "--chunk", "700", "--format", "json"],
     '{"ensemble": "pure", "N": 4, "measure": "skew", "mean": 0.6037357242161443, '
     '"stderr": 0.0019497801299846558, "samples": 3000, "seed": 9}\n'),
    (["tail", "--ensemble", "pure", "--dim", "8", "--epsilon", "0.1",
      "--samples", "5000", "--seed", "11"],
     "ensemble,N,epsilon,frequency,bound,samples,seed\n"
     "pure,8,0.1,0.054400000000000004,1.9933934595887661,5000,11\n"),
    # v5, as are the two unitaries and the two mixed states below
    (["sample", "--ensemble", "pure", "--dim", "3", "--seed", "5"],
     '{"ensemble": "pure", "dim": 3, "seed": 5, '
     '"re": [-0.06161940113218688, -0.7298383262897303, 0.462026621206295], '
     '"im": [0.13332052543894227, 0.48192404573548653, 0.006731999556999367]}\n'),
    (["sample", "--ensemble", "unitary", "--dim", "2", "--seed", "5"],
     '{"ensemble": "unitary", "dim": 2, "seed": 5, '
     '"re": [-0.25278177590662537, 0.9529964408420033, -0.9384732310070063, '
     '-0.27874846216236565], '
     '"im": [0.16691589321216524, -0.006184020144839306, 0.16585672445200472, '
     '-0.11856996449117498]}\n'),
    (["sample", "--ensemble", "unitary", "--dim", "3", "--seed", "5"],
     '{"ensemble": "unitary", "dim": 3, "seed": 5, '
     '"re": [-0.12355415777667611, -0.8028471371109752, 0.36635016224050054, '
     '-0.41079623288937245, 0.3319081865519889, 0.2696085105322626, '
     '-0.0667133658463401, 0.19567003241175449, 0.03341984916351216], '
     '"im": [0.26788824962296237, -0.3632111867296414, 0.04766469032268106, '
     '0.41711838375174737, -0.10368542835792727, -0.6809230849918428, '
     '0.7521823526298156, 0.25360132950980924, 0.5710111671223744]}\n'),
    # v2
    (["mc", "--ensemble", "pure", "--dim", "3", "--samples", "20000", "--seed", "1"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,3,skew,0.4995464492998569,0.0009187903513793783,20000,1\n"),
    # v2
    (["mc", "--ensemble", "pure", "--dim", "29", "--samples", "20000", "--seed", "1",
      "--measure", "rel-ent"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,29,rel-ent,2.9620892878915224,0.0006734778905225037,20000,1\n"),
    (["sample", "--ensemble", "mixed", "--dim", "2", "--seed", "5"],
     '{"ensemble": "mixed", "dim": 2, "seed": 5, '
     '"re": [0.724903812326476, 0.25293004349946663, 0.25293004349946663, '
     '0.27509618767352395], '
     '"im": [0.0, -0.15513355408293375, 0.15513355408293375, 0.0]}\n'),
    (["sample", "--ensemble", "mixed", "--dim", "3", "--seed", "5"],
     '{"ensemble": "mixed", "dim": 3, "seed": 5, '
     '"re": [0.6147677587667739, -0.0493515640131535, -0.08996316600151105, '
     '-0.0493515640131535, 0.12362973298676894, 0.0432127070042835, '
     '-0.08996316600151105, 0.0432127070042835, 0.2616025082464572], '
     '"im": [0.0, -0.18300519850087957, -0.04920122733054282, 0.18300519850087957, '
     '0.0, 0.016036184223958645, 0.04920122733054282, -0.016036184223958645, 0.0]}\n'),
    # the reduced pure-stream benchmark invocations at workload seed 1, and
    # chunks of 700 ending in a short one; recorded before the engine evaluated
    # chunks in groups
    (["mc", "--ensemble", "pure", "--dim", "2", "--samples", "200000",
      "--seed", "719562267642190970"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,2,skew,0.3333012709721843,0.00033327903995514604,200000,719562267642190970\n"),
    (["tail", "--ensemble", "pure", "--dim", "29", "--epsilon", "0.3", "--samples", "20000",
      "--seed", "6374312356877527388"],
     "ensemble,N,epsilon,frequency,bound,samples,seed\n"
     "pure,29,0.3,0.0,0.4841543723669481,20000,6374312356877527388\n"),
    (["mc", "--ensemble", "pure", "--dim", "2", "--samples", "30000", "--seed", "5",
      "--chunk", "700"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,2,skew,0.3329804594378862,0.0008608476806664775,30000,5\n"),
    # one chunk of two draw blocks, 699050 + 300950 states, whose statistics
    # merge block by block
    (["mc", "--ensemble", "pure", "--dim", "3", "--samples", "1000000", "--chunk", "1000000"],
     "ensemble,N,measure,mean,stderr,samples,seed\n"
     "pure,3,skew,0.49995517593014366,0.00012917231663365627,1000000,42\n"),
])
def test_lapack_free_cli_output_is_golden(capsys, argv, expected, simd_class):
    assert run_cli(capsys, *argv) == golden(expected, simd_class)


@pytest.mark.parametrize("argv,expected", [
    # v5, as is the N = 3 skew case at --chunk 700
    (["mc", "--ensemble", "mixed", "--dim", "2", "--samples", "20000", "--seed", "7"],
     "mixed,2,skew,0.137036613967071,0.0007337115506114604,20000,7\n"),
    (["mc", "--ensemble", "mixed", "--dim", "2", "--samples", "100000", "--seed", "3",
      "--measure", "rel-ent"],
     "mixed,2,rel-ent,0.24949364458926387,0.0005416966895107071,100000,3\n"),
    (["mc", "--ensemble", "mixed", "--dim", "3", "--samples", "20000", "--seed", "1",
      "--measure", "rel-ent"],
     "mixed,3,rel-ent,0.33333569989923323,0.0009566642487426042,20000,1\n"),
    # chunks of 700 states, and chunks of 20000 spanning several sampler slices
    (["mc", "--ensemble", "mixed", "--dim", "3", "--measure", "skew", "--chunk", "700",
      "--samples", "3000"],
     "mixed,3,skew,0.18401738674144147,0.001455697113727539,3000,42\n"),
    (["mc", "--ensemble", "mixed", "--dim", "3", "--chunk", "20000", "--samples", "40000"],
     "mixed,3,skew,0.18401589315094544,0.00039773817964052004,40000,42\n"),
])
def test_v4_mixed_mc_output_is_golden(capsys, argv, expected, simd_class):
    # v4: each of these moved in its last digits from v3, whose Gram step at N <= 3
    # used numpy's complex multiply. Skew at N = 3 and rel-ent go through LAPACK's eigh and
    # eigvalsh, whose bits these cases pin for the numpy and OpenBLAS build they were
    # recorded with; skew at N = 2 calls no LAPACK routine under v5, and holds on any build
    assert run_cli(capsys, *argv) == ("ensemble,N,measure,mean,stderr,samples,seed\n"
                                      + golden(expected, simd_class))


@pytest.mark.parametrize("n,q,digest", [
    (7, 0.0, "511f95ffdf7d99b8d724b255997dfd243aec9684e3c6258642da794fcc212f59"),
    (64, 0.5, "6c2eb2e8562bd46c6ab9077ec7ff9accf32fe21e22ec558577dea4d289baa2ef"),
    (200, 1.3, "d03c1f8e2f54d1276138114c821a337251e28515c22d31603c2177fa9a9e7c17"),
    # recorded before the series was summed by exact extraction: a large table,
    # signed zeros (q = 0) and a negative weight exponent
    (512, 0.5, "61443cdef9de32cc156c89b161e374da1f051264bf6bdec57b6d68d09e471646"),
    (300, 0.0, "2bc9f8f10336d117296f64848c781136e92cdbca2dc6d7f3c2b9e8509384035d"),
    (130, -0.5, "0b66bbffd45c5d595c7f74599a14af6b0691d9378b54ec01fe9afcf85ae3fe12"),
])
def test_series_moment_table_digest(n, q, digest):
    raw = moment_table(n, q).values.tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("n,value", [
    # recorded from the prefix-sum bracket, which rests on no SIMD loop or BLAS call; each moved
    # toward 1 - (2 + pi Q_N/N^2)/(N + 1) from the series table's ...712, ...947, ...103636, ...5037
    (2, "0.1369837924839713"),
    (128, "0.2773010972480956"),
    (256, "0.27839937725101993"),
    (512, "0.27894716463649216"),
])
def test_mixed_avg_closed_form_is_golden(capsys, n, value):
    out = run_cli(capsys, "closed-form", "--measure", "mixed-avg", "--dim", str(n))
    assert out == f'{{"measure": "mixed-avg", "N": {n}, "value": {value}}}\n'


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_pure_mc_bytes_independent_of_threads(capsys, many_cpus, measure):
    argv = ["mc", "--ensemble", "pure", "--dim", "5", "--samples", "9000",
            "--seed", "19", "--chunk", "700", "--measure", measure]
    one = run_cli(capsys, *argv, "--threads", "1")
    two = run_cli(capsys, *argv, "--threads", "2")
    assert one == two


def test_mixed_mc_bytes_independent_of_threads(capsys, many_cpus):
    argv = ["mc", "--ensemble", "mixed", "--dim", "3", "--samples", "6000",
            "--seed", "13", "--chunk", "512"]
    one = run_cli(capsys, *argv, "--threads", "1")
    two = run_cli(capsys, *argv, "--threads", "2")
    assert one == two


@pytest.mark.parametrize("measure", ["skew", "rel-ent"])
def test_mixed_mc_bytes_independent_of_threads_where_blas_threads(capsys, many_cpus, measure):
    # at N = 32 OpenBLAS would thread the batched eigh/eigvalsh by default
    argv = ["mc", "--ensemble", "mixed", "--dim", "32", "--samples", "2048",
            "--seed", "17", "--chunk", "512", "--measure", measure]
    one = run_cli(capsys, *argv, "--threads", "1")
    two = run_cli(capsys, *argv, "--threads", "2")
    assert one == two


def test_figure1_bytes_independent_of_threads(capsys, many_cpus, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        csv_path = tmp_path / f"sweep{threads}.csv"
        svg_path = tmp_path / f"sweep{threads}.svg"
        run_cli(capsys, "figure1", "--max-exp", "3", "--samples", "3000", "--seed", "3",
                "--out", str(csv_path), "--svg", str(svg_path), "--threads", threads)
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]


VERIFY_ALL_NAMES = [
    "gauss-laguerre exactness (alpha=1/2)",
    "laguerre orthogonality (q=0, degrees <= 6)",
    "moment table series vs quadrature (q=1/2, degrees <= 127)",
    "low-order q=1/2 moments vs exact values",
    "exp-weighted Vandermonde integral, MC vs closed form",
    "twirl closed form fixes identity and swap exactly",
    "twirl MC vs closed form (N=2,3; 5 matrices each)",
    "spectral average of (Tr sqrt(rho))^2, MC vs closed form",
    "coherence range [0, 1 - 1/N] (10^4 mixed states per N)",
    "projector-sum form equals diagonal form (10^3 states per N)",
    "pure-state formula vs density-matrix formula (10^3 per N)",
    "pure-state Lipschitz bound, slope 4/N (10^4 random pairs per N)",
    "bipartite Lipschitz bound, slope 4 (10^3 pairs, N=2,3)",
    "polygamy inequality on bipartite pure states (10^3, N=2,3)",
    "convexity spot checks (10^3 pairs, p in {1/4, 1/2, 3/4})",
    "maximally coherent and diagonal extremes (10^3 per N)",
    "Haar invariance of the coherence distribution (10^4, N=2,4)",
    "Gram sampler vs bipartite partial-trace route (KS, 10^4, N=2,3)",
    "MC ensemble means vs closed forms (2x10^4 samples)",
]


def test_verify_all_seed42_names_and_status(suite_all_seed42):
    assert [(r.name, r.passed) for r in suite_all_seed42] == [
        (name, True) for name in VERIFY_ALL_NAMES]
