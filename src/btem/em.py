"""Two-round EM for mixtures of noisy binary templates, plus a classical
EM baseline with restarts.

The two-round fit over-seeds with l templates copied from the data,
estimates the noise level from their minimum pairwise distance, runs one
E/M round, prunes starved clusters and keeps k far-apart survivors, then
runs a final E/M round and rounds the result to binary.
"""

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import as_binary, l1_cross_matrix, min_pairwise_distance, round_to_binary
from .errors import (
    AllClustersStarved,
    InsufficientData,
    InsufficientInput,
    ParameterError,
    TooFewClusters,
)
from .sampler import child_stream

__all__ = [
    "SoftAssignment",
    "FitDiagnostics",
    "FitResult",
    "NoiseEstimate",
    "initial_cluster_count",
    "estimate_q0",
    "e_step",
    "m_step",
    "prune_by_weight",
    "farthest_first_select",
    "two_round_em",
    "standard_em",
    "log_likelihood",
]

EMPTY_MASS = 1e-12  # total posterior mass below which a cluster counts as empty
Q_FLOOR = 1e-6


@dataclass(eq=False)
class SoftAssignment:
    """Posterior responsibilities (m x r) and per-example log-normalizers."""

    posteriors: np.ndarray
    log_normalizers: np.ndarray


@dataclass(eq=False)
class FitDiagnostics:
    init_indices: Optional[np.ndarray] = None
    q0_clamped: bool = False
    round1_weights: Optional[np.ndarray] = None
    round1_templates: Optional[np.ndarray] = None
    pruned_indices: Optional[np.ndarray] = None
    survivor_indices: Optional[np.ndarray] = None
    selection_order: Optional[list] = None
    iterations: int = 0
    restart_index: Optional[int] = None
    log_likelihood: float = math.nan
    wall_time_s: float = 0.0


@dataclass(eq=False)
class FitResult:
    """Fitted mixture: relaxed templates, their rounding, weights, noise,
    and the final E-step over the examples it was fit to (assignment)."""

    templates_real: np.ndarray
    templates: np.ndarray
    weights: np.ndarray
    q0: float
    diagnostics: FitDiagnostics = field(default_factory=FitDiagnostics)
    assignment: Optional[SoftAssignment] = None

    def __post_init__(self):
        if not 0.0 < self.q0 <= 0.5:
            raise ParameterError("fitted noise level must lie in (0, 1/2]")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ParameterError("fitted weights must sum to 1")

    @property
    def k(self):
        return self.templates.shape[0]


class NoiseEstimate(NamedTuple):
    q0: float
    clamped: bool


def initial_cluster_count(w_min, delta):
    """Number of initial clusters l and the pruning threshold 1/(4l).

    l = ceil((4/w_min) * ln(2/(delta*w_min))): large enough that every
    true cluster is seeded at least twice with probability 1 - delta/2
    (coupon-collector style over-seeding).
    """
    if not 0.0 < w_min <= 1.0:
        raise ParameterError("smallest weight must lie in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ParameterError("failure budget must lie in (0, 1)")
    l = math.ceil((4.0 / w_min) * math.log(2.0 / (delta * w_min)))
    return l, 1.0 / (4 * l)


def estimate_q0(initial_templates):
    """Noise level solving q(1-q) = min pairwise distance / (2n).

    Same-cluster seed pairs sit at expected distance 2nq(1-q), so the
    minimum pairwise distance pins q.  Returns the root <= 1/2.  When the
    quadratic has no real root (ratio > 1/4) the estimate clamps to 0.5;
    identical seeds clamp to the floor 1e-6.  Either clamp sets the flag.
    """
    T = np.atleast_2d(np.asarray(initial_templates))
    if T.shape[0] < 2:
        raise InsufficientInput("noise estimation needs at least 2 seeds")
    d, _ = min_pairwise_distance(T)
    v = d / (2.0 * T.shape[1])
    if v == 0.0:
        return NoiseEstimate(Q_FLOOR, True)
    if v > 0.25:
        return NoiseEstimate(0.5, True)
    return NoiseEstimate((1.0 - math.sqrt(1.0 - 4.0 * v)) / 2.0, False)


def _check_fit_q(q):
    if not 0.0 < q <= 0.5:
        raise ParameterError("likelihood noise level must lie in (0, 1/2]")


def e_step(examples, templates, weights, q):
    """Posterior responsibilities, computed in the log domain.

    Likelihoods underflow doubles for n in the thousands, so the matrix
    of log(w_i) + log f_i(x_j) is max-shifted by row before
    exponentiation.  At q = 1/2 every density is equal and the
    posteriors reduce to the weights.
    """
    X = np.atleast_2d(examples)
    T = np.atleast_2d(np.asarray(templates, dtype=np.float64))
    w = np.asarray(weights, dtype=np.float64).ravel()
    _check_fit_q(q)
    if w.shape[0] != T.shape[0]:
        raise ParameterError("one weight per template required")
    if abs(w.sum() - 1.0) > 1e-6:
        raise ParameterError("weights must sum to 1")
    n = X.shape[1]
    D = l1_cross_matrix(X, T)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    logp = D * math.log(q) + (n - D) * math.log1p(-q) + logw[None, :]
    shift = logp.max(axis=1, keepdims=True)
    z = np.exp(logp - shift)
    total = z.sum(axis=1, keepdims=True)
    return SoftAssignment(z / total, shift[:, 0] + np.log(total[:, 0]))


def m_step(examples, assignment, prev_templates=None):
    """Reestimate weights and templates from the responsibilities.

    A cluster whose total posterior mass falls below 1e-12 keeps its
    previous template (it is starved; pruning deals with it later).
    """
    X = np.atleast_2d(examples)
    P = assignment.posteriors
    m = X.shape[0]
    mass = P.sum(axis=0)
    weights = mass / m
    empty = mass < EMPTY_MASS
    denom = np.where(empty, 1.0, mass)
    T = (P.T @ X.astype(np.float64)) / denom[:, None]
    if empty.any():
        if prev_templates is None:
            raise ValueError("empty cluster with no previous template to keep")
        T[empty] = np.asarray(prev_templates, dtype=np.float64)[empty]
    np.clip(T, 0.0, 1.0, out=T)
    return weights, T


def prune_by_weight(weights, weight_threshold):
    """Indices of clusters whose weight is at least the threshold,
    in their original order."""
    if not 0.0 < weight_threshold < 1.0:
        raise ParameterError("weight threshold must lie in (0, 1)")
    survivors = np.flatnonzero(np.asarray(weights) >= weight_threshold)
    if survivors.size == 0:
        raise AllClustersStarved("every cluster fell below the weight threshold")
    return survivors


def farthest_first_select(templates, k, rng=None, weights=None, deterministic=False):
    """Greedy max-min selection of k template indices.

    The seed pick is random (rng required) or the max-weight survivor in
    deterministic mode; each later pick maximizes the minimum l1 distance
    to the already-selected set, ties to the lowest index.  Returns the
    indices in selection order.
    """
    T = np.atleast_2d(np.asarray(templates, dtype=np.float64))
    r = T.shape[0]
    if r < k:
        raise TooFewClusters(f"need {k} clusters but only {r} survived")
    if deterministic:
        if weights is None:
            raise ParameterError("deterministic seed pick needs weights")
        first = int(np.argmax(weights))
    else:
        if rng is None:
            raise ParameterError("random seed pick needs an rng")
        first = int(rng.integers(r))
    selected = [first]
    min_dist = np.abs(T - T[first]).sum(axis=1)
    while len(selected) < k:
        min_dist[selected] = -1.0  # exclude picked rows from the argmax
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.abs(T - T[nxt]).sum(axis=1))
    return selected


def _em_rounds(X, T, weights, q, rounds):
    """Run the given number of E/M rounds; returns (weights, templates)."""
    for _ in range(rounds):
        assign = e_step(X, T, weights, q)
        weights, T = m_step(X, assign, prev_templates=T)
    return weights, T


def _finish(X, T_real, weights, q0, diag):
    """Wrap the final mixture, scored by one E-step over the examples."""
    assign = e_step(X, T_real, weights, q0)
    diag.log_likelihood = float(assign.log_normalizers.sum())
    return FitResult(T_real, round_to_binary(T_real), weights, q0, diag,
                     assign)


def two_round_em(examples, k, w_min, delta, seed, rounds=2,
                 round1_binarize=False, deterministic_prune=False):
    """Fit k templates with the two-round over-seeded EM.

    Parameters
    ----------
    examples : (m, n) binary array
    k : int
        Mixture size to recover.
    w_min : float
        Assumed lower bound on the smallest mixture weight.
    delta : float
        Allowed failure probability; with w_min it sets the seed count l.
    seed : int or SeedSequence
        Drives the initial picks (child 0) and the selection seed (child 1).
    rounds : int
        Total E/M rounds, default 2; larger values append extra rounds
        after the pruning stage, before the final rounding.
    round1_binarize : bool
        Round the surviving templates to binary before the second round
        instead of keeping them relaxed.
    deterministic_prune : bool
        Seed the farthest-first stage from the max-weight survivor
        instead of a random one.

    Returns
    -------
    FitResult
    """
    t0 = time.perf_counter()
    X = np.atleast_2d(as_binary(examples))
    m = X.shape[0]
    if k < 1:
        raise ParameterError("need k >= 1")
    if rounds < 2:
        raise ParameterError("need at least 2 rounds")
    l, w_threshold = initial_cluster_count(w_min, delta)
    if m < l:
        raise InsufficientData(f"need at least l={l} examples, got {m}")

    init_idx = child_stream(seed, 0).choice(m, size=l, replace=False)
    T0 = X[init_idx]
    q0, clamped = estimate_q0(T0)
    w1, T1 = _em_rounds(X, T0, np.full(l, 1.0 / l), q0, 1)

    survivors = prune_by_weight(w1, w_threshold)
    picked = farthest_first_select(
        T1[survivors], k,
        rng=child_stream(seed, 1),
        weights=w1[survivors],
        deterministic=deterministic_prune,
    )
    selection = [int(survivors[i]) for i in picked]
    T = T1[selection]
    if round1_binarize:
        T = round_to_binary(T).astype(np.float64)

    weights, T = _em_rounds(X, T, np.full(k, 1.0 / k), q0, rounds - 1)
    diag = FitDiagnostics(
        init_indices=init_idx,
        q0_clamped=clamped,
        round1_weights=w1,
        round1_templates=T1,
        pruned_indices=np.setdiff1d(np.arange(l), survivors),
        survivor_indices=survivors,
        selection_order=selection,
        iterations=rounds,
    )
    result = _finish(X, T, weights, q0, diag)
    diag.wall_time_s = time.perf_counter() - t0
    return result


def standard_em(examples, k, q_known, iterations, restarts, seed):
    """Classical EM from k random seeds with the noise level given.

    Each restart initializes from k distinct examples and runs the fixed
    number of E/M rounds; the restart with the largest log-likelihood
    wins.  Restart r draws from child_seed(seed, r), so adding restarts
    never perturbs earlier ones.
    """
    t0 = time.perf_counter()
    X = np.atleast_2d(as_binary(examples))
    m = X.shape[0]
    _check_fit_q(q_known)
    if iterations < 1 or restarts < 1:
        raise ParameterError("need iterations >= 1 and restarts >= 1")
    if m < k:
        raise InsufficientData(f"need at least k={k} examples, got {m}")

    best = None
    for r in range(restarts):
        init_idx = child_stream(seed, r).choice(m, size=k, replace=False)
        weights, T = _em_rounds(X, X[init_idx].astype(np.float64),
                                np.full(k, 1.0 / k), q_known, iterations)
        fit = _finish(X, T, weights, q_known, FitDiagnostics(
            init_indices=init_idx, iterations=iterations, restart_index=r))
        if (best is None or fit.diagnostics.log_likelihood
                > best.diagnostics.log_likelihood):
            best = fit

    best.diagnostics.wall_time_s = time.perf_counter() - t0
    return best


def log_likelihood(examples, templates, weights, q):
    """Observed-data log-likelihood: the E-step's summed log-normalizers."""
    return float(e_step(examples, templates, weights, q).log_normalizers.sum())
