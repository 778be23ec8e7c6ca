"""Clustering-quality metrics and template recovery measures."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import l1_distance
from .errors import DimensionError, InsufficientInput

__all__ = [
    "ClusterEvaluation",
    "conditional_purity",
    "conditional_entropy",
    "match_templates",
    "oracle_mean_error",
    "near_optimality_gaps",
    "evaluate_fit",
]


def _contingency(true_labels, cluster_labels):
    x = np.asarray(true_labels).ravel()
    y = np.asarray(cluster_labels).ravel()
    if x.shape != y.shape:
        raise DimensionError("label sequences must have equal length")
    if x.size == 0:
        raise InsufficientInput("need at least one labeled example")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    counts = np.zeros((yi.max() + 1, xi.max() + 1), dtype=np.int64)
    np.add.at(counts, (yi, xi), 1)
    return counts


def conditional_purity(true_labels, cluster_labels):
    """Mean over clusters (weighted by cluster mass) of the largest
    true-category fraction inside the cluster."""
    counts = _contingency(true_labels, cluster_labels)
    return float(counts.max(axis=1).sum() / counts.sum())


def conditional_entropy(true_labels, cluster_labels):
    """Entropy (nats) of the true category given the cluster; 0 log 0 = 0."""
    counts = _contingency(true_labels, cluster_labels)
    m = counts.sum()
    row_tot = counts.sum(axis=1, keepdims=True)
    nz = counts > 0
    frac = np.where(nz, counts, 1) / np.where(row_tot > 0, row_tot, 1)
    h = -(counts[nz] / m * np.log(frac[nz])).sum()
    return float(h) if h > 0.0 else 0.0


def match_templates(estimated, truth):
    """Minimum-total-l1 matching between two equal-size template lists.

    Returns (perm, total) where estimated[i] is matched to truth[perm[i]]
    and total is the summed l1 distance under that matching.  Solved as
    an exact assignment problem for every k.
    """
    E = np.atleast_2d(np.asarray(estimated, dtype=np.float64))
    T = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    if E.shape != T.shape:
        raise DimensionError(f"template lists differ: {E.shape} vs {T.shape}")
    cost = np.abs(E[:, None, :] - T[None, :, :]).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return tuple(int(c) for c in cols), float(cost[rows, cols].sum())


def oracle_mean_error(dataset, model):
    """Per-cluster l1 distance between the mean of the examples truly in
    the cluster and its template; nan where the cluster drew nothing.
    This is the error a fit would make if memberships were known."""
    out = np.full(model.k, np.nan)
    for i in range(model.k):
        rows = dataset.members(i)
        if rows.size:
            out[i] = l1_distance(dataset.examples[rows].mean(axis=0),
                                 model.templates[i])
    return out


def near_optimality_gaps(dataset, model, fit):
    """Per-true-cluster slack of the fitted templates over the oracle:
    l1(relaxed template matched to cluster i, template i) minus the
    oracle mean error of cluster i.  Matching uses the rounded templates."""
    perm, _ = match_templates(fit.templates, model.templates)
    oracle = oracle_mean_error(dataset, model)
    gaps = np.full(model.k, np.nan)
    for est_idx, true_idx in enumerate(perm):
        err = l1_distance(fit.templates_real[est_idx], model.templates[true_idx])
        gaps[true_idx] = err - oracle[true_idx]
    return gaps


@dataclass(eq=False)
class ClusterEvaluation:
    """Bundle of quality measures for one fit against ground truth."""

    purity: float
    entropy: float  # nats
    log_likelihood: float
    exact_recovery: bool
    template_errors: np.ndarray  # l1 error of estimated i vs its match
    permutation: tuple

    @property
    def entropy_bits(self):
        return self.entropy / math.log(2.0)


def evaluate_fit(dataset, model, fit):
    """Score a fit on the examples it was fit to: label agreement from the
    argmax of fit.assignment, the fit's log-likelihood, and template
    recovery via minimum-cost matching against the true templates."""
    rows = 0 if fit.assignment is None else fit.assignment.posteriors.shape[0]
    if rows != dataset.m:
        raise DimensionError(
            f"fit has posteriors for {rows} examples, dataset has {dataset.m}")
    hard = np.argmax(fit.assignment.posteriors, axis=1)
    perm, total = match_templates(fit.templates, model.templates)
    errors = np.array([
        l1_distance(fit.templates[i], model.templates[perm[i]])
        for i in range(len(perm))
    ])
    return ClusterEvaluation(
        purity=conditional_purity(dataset.labels, hard),
        entropy=conditional_entropy(dataset.labels, hard),
        log_likelihood=fit.diagnostics.log_likelihood,
        exact_recovery=bool(total == 0.0),
        template_errors=errors,
        permutation=perm,
    )
