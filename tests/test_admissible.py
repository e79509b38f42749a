"""Every public entry point refuses an inadmissible number with a FastJlError.

A number is admissible only if it is finite and inside its interval; an
integer size is also an integer, at most 2**53.  Each row calls one entry
point of ``fastjl``, ``fastjl.verify``, ``fastjl.lemmas`` or ``fastjl.sparsity`` (and
``fastjl.rng.run_trials`` and ``fastjl.rng.runs``, which they share, the
``fastjl.transform.PhdKernel.apply`` that CLI ``embed`` prepares, and the
dense baseline's ``fastjl.transform.sample_dense_matrix``) with admissible
arguments except one scalar, which takes NaN, +inf, -inf and its
out-of-range values; an integer size also takes 10**400 and 2.5.  The error
is the class of the check that owns the parameter.  Result records (``TailEstimate``, the ``*Check`` and
``*Result`` classes) and ``make_record`` hold outputs, and
``elementary_ineq_holds`` is documented as unchecked, so they have no row.
"""

import math

import numpy as np
import pytest

from fastjl import (
    DimensionError,
    DomainError,
    FastJlError,
    JlParams,
    ParameterError,
    SignDiagonal,
    SparseProjection,
    apply_phd,
    choose_k,
    embed_with,
    hard_vector,
    q_ailon_chazelle,
    q_lower_threshold,
    q_theorem1,
    random_unit_vector,
    sample_projection,
    sample_signs,
)
from fastjl.rng import run_trials, runs
from fastjl.transform import PhdKernel, sample_dense_matrix
from fastjl.lemmas import (
    BoundSpec,
    Lemma,
    binomial_tail_exact,
    chisq_lower_tail_check,
    gaussian_square_tail_check,
    mgf_premise_estimate,
    reverse_chernoff_check,
    run_bound_check,
)
from fastjl.verify import (
    TailEstimate,
    coord_exceedance_rate,
    estimate_failure_rate,
    lower_bound_witness,
    total_mass_statistic,
    wilson_interval,
)

NAN, INF, HUGE = math.nan, math.inf, 10**400
SIZES = {"d", "k", "r", "s", "successes", "trials", "workers", "seed", "block"}
P, D, DOM = ParameterError, DimensionError, DomainError

X = random_unit_vector(16, 0)
PROJ = sample_projection(4, 16, 0.5, 1)
MC = dict(trials=2, seed=0, workers=1)

KERNEL = PhdKernel(sample_signs(16, 1).signs, PROJ.indptr, PROJ.cols, PROJ.weights, 4, 1)

# (label, entry point, admissible arguments, {parameter: (out-of-range value or values, error)})
ENTRY_POINTS = [
    ("JlParams", JlParams, dict(d=16, k=4, eps=0.5, q=0.5, seed=1),
     {"d": (0, P), "k": (17, P), "eps": (1.0, P), "q": (0.0, P), "seed": (-1, P)}),
    ("SignDiagonal", SignDiagonal, dict(signs=np.ones(16), seed=1), {"seed": (2**64, P)}),
    ("SparseProjection", SparseProjection,
     dict(k=4, d=16, q=0.5, indptr=PROJ.indptr, cols=PROJ.cols, weights=PROJ.weights),
     {"k": (0, P), "d": (0, P), "q": (1.5, P)}),
    ("sample_signs", sample_signs, dict(d=16, seed=1), {"d": (0, P), "seed": (-1, P)}),
    ("sample_projection", sample_projection, dict(k=4, d=16, q=0.5, seed=1),
     {"k": (0, P), "d": (0, P), "q": (0.0, P), "seed": (-1, P)}),
    ("apply_phd", apply_phd, dict(X=X[None, :], diag=sample_signs(16, 1), proj=PROJ, workers=1),
     {"workers": (0, P)}),
    ("PhdKernel.apply", KERNEL.apply, dict(X=X[None, :], workers=1), {"workers": ((0, -5, 65), P)}),
    ("sample_dense_matrix", sample_dense_matrix, dict(k=4, d=16, seed=1), {"k": (0, P), "d": (0, P), "seed": (-1, P)}),
    ("q_theorem1", q_theorem1, dict(eps=0.5, n=100, d=64, c_q=1.0),
     {"eps": (1.0, P), "n": (1, P), "d": (1, P), "c_q": (0.0, P)}),
    ("q_ailon_chazelle", q_ailon_chazelle, dict(n=100, d=64, c_q=1.0),
     {"n": (1, P), "d": (1, P), "c_q": (0.0, P)}),
    ("q_lower_threshold", q_lower_threshold, dict(eps=0.5, delta=0.1, d=64, c_q=1.0),
     {"eps": (0.0, P), "delta": (1.0, P), "d": (1, P), "c_q": (-1.0, P)}),
    ("choose_k_n", choose_k, dict(eps=0.5, n=100, c_k=1.0), {"eps": (1.0, P), "n": (1, P), "c_k": (0.0, P)}),
    ("choose_k_delta", choose_k, dict(eps=0.5, delta=0.1), {"delta": (0.0, P)}),
    ("hard_vector", hard_vector, dict(delta=0.1, d=64), {"delta": (0.5, P), "d": (0, D)}),
    ("random_unit_vector", random_unit_vector, dict(d=16, seed=0), {"d": (0, P), "seed": (-1, P)}),
    ("wilson_interval", wilson_interval, dict(successes=3, trials=10, z=1.96),
     {"successes": (11, P), "trials": (0, P), "z": (0.0, P)}),
    ("TailEstimate.from_counts", TailEstimate.from_counts, dict(successes=3, trials=10),
     {"successes": (-1, P), "trials": (0, P)}),
    ("run_bound_check", run_bound_check,
     dict(spec=BoundSpec(Lemma.MAX_Z, {"m": 16, "q": 0.5, "k": 8, "alpha": 0.25}), **MC),
     {"trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("estimate_failure_rate", estimate_failure_rate,
     dict(params=JlParams(d=16, k=4, eps=0.5, q=0.5, seed=1), source=X, trials=2, workers=1),
     {"trials": (0, P), "workers": (65, P)}),
    ("coord_exceedance_rate", coord_exceedance_rate, dict(x=X, threshold_c=1.0, n=10.0, **MC),
     {"threshold_c": (0.0, P), "n": (1.0, P), "trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("binomial_tail_exact", binomial_tail_exact, dict(r=8, q=0.5, s=3),
     {"r": (10_001, P), "q": (1.5, P), "s": (9, P)}),
    ("reverse_chernoff_check", reverse_chernoff_check, dict(r=8, q=0.1, alpha=0.5),
     {"r": (0, P), "q": (0.5, DOM), "alpha": (-1.0, DOM)}),
    ("chisq_lower_tail_check", chisq_lower_tail_check, dict(weights=(1.0,), x=0.0, c3=0.1, C3=2.0, **MC),
     {"x": (-1.0, P), "c3": (0.0, P), "C3": (0.0, P), "trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("gaussian_square_tail_check", gaussian_square_tail_check, dict(x=1.0), {"x": (-1.0, P)}),
    ("lower_bound_witness", lower_bound_witness, dict(eps=0.25, delta=0.05, d=64, q=0.5, **MC),
     {"eps": (1.0, P), "delta": (0.5, P), "d": (0, D), "q": (0.0, P),
      "trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("total_mass_statistic", total_mass_statistic, dict(eps=0.25, delta=0.001, d=64, q=0.5, **MC),
     {"eps": (1.0, P), "delta": (-0.5, P), "d": (0, D), "q": (0.0, P),
      "trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("mgf_premise_estimate", mgf_premise_estimate, dict(MC), {"trials": (0, P), "seed": (-1, P), "workers": (0, P)}),
    ("run_trials", run_trials, dict(draw=lambda rng, count: count, **MC),
     {"trials": (0, P), "seed": (-1, P), "workers": (0, P), "block": ((0, -1), P)}),
    ("runs", runs, dict(n=3, workers=1), {"workers": (65, P)}),
]

# Values whose error differs from the parameter's: total_mass_statistic tests
# delta < 4^-4, a hypothesis of the deviation, before hard_level sees delta.
OVERRIDES = {("total_mass_statistic", "delta", INF): DOM}


def _cases():
    for label, entry, kwargs, params in ENTRY_POINTS:
        for name, (out_of_range, error) in params.items():
            out = out_of_range if isinstance(out_of_range, tuple) else (out_of_range,)
            for value in (NAN, INF, -INF, *out, *((HUGE, 2.5) if name in SIZES else ())):
                shown = "10**400" if value is HUGE else repr(value)
                yield pytest.param(entry, {**kwargs, name: value}, OVERRIDES.get((label, name, value), error),
                                   id=f"{label}-{name}={shown}")
    for weights in ((NAN,), (1.0, INF), (-INF,)):  # NaN ran, and read FAIL
        yield pytest.param(chisq_lower_tail_check, dict(weights=weights, x=0.0, c3=0.1, C3=2.0, **MC), P,
                           id=f"chisq_lower_tail_check-weights={weights}")


@pytest.mark.parametrize("entry, kwargs, error", list(_cases()))
def test_inadmissible_number_raises_the_owning_check_error(entry, kwargs, error):
    with pytest.raises(FastJlError) as caught:
        entry(**kwargs)
    assert type(caught.value) is error


@pytest.mark.parametrize("entry, kwargs", [row[1:3] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS])
def test_the_admissible_arguments_of_each_row_are_accepted(entry, kwargs):
    entry(**kwargs)


# (D, P) sampled at a d that is not a power of two: sampling takes any d, applying needs the FWHT's
X12, D12 = random_unit_vector(12, 0), dict(diag=sample_signs(12, 0), proj=sample_projection(4, 12, 0.5, 0))


@pytest.mark.parametrize("entry, kwargs", [(embed_with, dict(x=X12, **D12)), (apply_phd, dict(X=X12[None, :], **D12))],
                         ids=["embed_with", "apply_phd"])
def test_d_not_a_power_of_two_raises_dimension_error(entry, kwargs):
    with pytest.raises(FastJlError) as caught:
        entry(**kwargs)
    assert type(caught.value) is DimensionError
