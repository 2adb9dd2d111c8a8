"""Skew information-based coherence of random quantum states.

Samplers for Haar pure states, Haar unitaries and Hilbert-Schmidt mixed
states; the coherence measures themselves; closed-form ensemble averages and
concentration bounds; and independent Monte Carlo plus quadrature oracles
that verify every closed form.
"""

from .closed_forms import (MomentTable, PrecisionError, avg_coherence_mixed, avg_coherence_pure,
                           avg_cr_mixed, avg_cr_pure, coherent_subspace_dim, levy_bound,
                           lipschitz_constant_mixed, lipschitz_constant_pure, max_coherence,
                           moment_table, pure_average_gap, tail_bound_mixed, tail_bound_pure,
                           trace_sqrt_squared_average, vandermonde_sqrt_integral)
from .coherence import (relative_entropy_coherence, skew_coherence, skew_coherence_pure,
                        skew_information)
from .estimators import (EstimatorResult, SweepRow, TailEstimate, estimate_average, estimate_tail,
                         figure1_sweep, run_chunked)
from .linalg import hermitian_part, partial_trace_b, sqrt_psd, swap_operator
from .oracles import (gauss_laguerre_rule, quadrature_moment_table, trace_sqrt_squared_mc,
                      twofold_twirl, twofold_twirl_mc, vandermonde_sqrt_integral_mc)
from .sampling import RngStream, haar_pure_batch, haar_unitary_batch, hs_mixed_batch

__version__ = "0.1.0"

__all__ = [
    "EstimatorResult", "MomentTable", "PrecisionError", "RngStream", "SweepRow", "TailEstimate",
    "avg_coherence_mixed", "avg_coherence_pure", "avg_cr_mixed", "avg_cr_pure",
    "coherent_subspace_dim", "estimate_average", "estimate_tail", "figure1_sweep",
    "gauss_laguerre_rule", "haar_pure_batch", "haar_unitary_batch", "hermitian_part",
    "hs_mixed_batch", "levy_bound", "lipschitz_constant_mixed", "lipschitz_constant_pure",
    "max_coherence", "moment_table", "partial_trace_b", "pure_average_gap",
    "quadrature_moment_table", "relative_entropy_coherence", "run_chunked", "skew_coherence",
    "skew_coherence_pure", "skew_information", "sqrt_psd", "swap_operator", "tail_bound_mixed",
    "tail_bound_pure", "trace_sqrt_squared_average", "trace_sqrt_squared_mc", "twofold_twirl",
    "twofold_twirl_mc", "vandermonde_sqrt_integral", "vandermonde_sqrt_integral_mc",
]
