"""Tests for clustering quality metrics and template matching."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btem.em import FitResult, two_round_em
from btem.errors import DimensionError, InsufficientInput
from btem.metrics import (
    conditional_entropy,
    conditional_purity,
    evaluate_fit,
    match_templates,
    near_optimality_gaps,
    oracle_mean_error,
)
from btem.sampler import (
    LabeledDataset,
    MixtureModel,
    make_line_templates,
    mixture_weights,
    sample_dataset,
)


def label_pairs(max_len=40, max_k=5):
    return st.integers(1, max_len).flatmap(
        lambda ln: st.tuples(
            st.lists(st.integers(0, max_k - 1), min_size=ln, max_size=ln),
            st.lists(st.integers(0, max_k - 1), min_size=ln, max_size=ln),
        )
    )


class TestPurity:
    def test_perfect_clustering(self):
        assert conditional_purity([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0

    def test_fifty_fifty(self):
        assert conditional_purity([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_hand_value(self):
        assert conditional_purity([0, 0, 0, 1], [0, 0, 1, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(InsufficientInput):
            conditional_purity([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            conditional_purity([0, 1], [0])

    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_range_and_relabeling_invariance(self, pair):
        truth, pred = pair
        p = conditional_purity(truth, pred)
        assert 0.0 < p <= 1.0
        shifted = [x + 17 for x in pred]
        assert conditional_purity(truth, shifted) == p

    @given(label_pairs(max_k=3))
    @settings(max_examples=40, deadline=None)
    def test_singleton_clusters_are_pure(self, pair):
        truth, _ = pair
        assert conditional_purity(truth, list(range(len(truth)))) == 1.0


class TestEntropy:
    def test_perfect_clustering_is_zero(self):
        assert conditional_entropy([0, 1, 0, 1], [0, 1, 0, 1]) == 0.0

    def test_zero_is_plus_zero(self):
        h = conditional_entropy([0, 1], [0, 1])
        assert math.copysign(1.0, h) == 1.0

    def test_uninformative_two_way(self):
        h = conditional_entropy([0, 1, 0, 1], [0, 0, 1, 1])
        assert h == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        # one mixed cluster of 2, one pure cluster of 2
        h = conditional_entropy([0, 1, 1, 1], [0, 0, 1, 1])
        assert h == pytest.approx(0.5 * math.log(2), abs=1e-12)

    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_log_categories(self, pair):
        truth, pred = pair
        k_true = len(set(truth))
        h = conditional_entropy(truth, pred)
        assert -1e-12 <= h <= math.log(max(k_true, 1)) + 1e-12

    def test_bits_conversion(self):
        h = conditional_entropy([0, 1, 0, 1], [0, 0, 1, 1])
        assert h / math.log(2) == pytest.approx(1.0)


class TestMatchTemplates:
    def test_identity(self):
        t = np.eye(3)
        perm, total = match_templates(t, t)
        assert perm == (0, 1, 2)
        assert total == 0.0

    def test_swap_recovered(self):
        truth = np.array([[0.0, 0.0], [1.0, 1.0]])
        perm, total = match_templates(truth[::-1], truth)
        assert perm == (1, 0)
        assert total == 0.0

    def test_single_flip_costs_one(self):
        truth = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        est = truth.copy()
        est[0, 2] = 1.0
        _, total = match_templates(est, truth)
        assert total == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            match_templates(np.eye(2), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_oracle(self, seed, k):
        rng = np.random.default_rng(seed)
        est = rng.uniform(size=(k, 7))
        truth = rng.uniform(size=(k, 7))
        perm, total = match_templates(est, truth)
        best = min(
            sum(np.abs(est[i] - truth[p[i]]).sum() for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert total == pytest.approx(best)
        assert sorted(perm) == list(range(k))
        assert total == pytest.approx(
            sum(np.abs(est[i] - truth[perm[i]]).sum() for i in range(k))
        )


class TestOracleMeanError:
    def test_noiseless_is_zero(self):
        t = make_line_templates(16, 0.5)
        model = MixtureModel(t, mixture_weights(2, 0.5), 0.0)
        ds = sample_dataset(model, 40, 3)
        assert oracle_mean_error(ds, model).tolist() == [0.0, 0.0]

    def test_single_member_cluster(self):
        t = np.array([[0, 0, 0, 0]], dtype=np.uint8)
        model = MixtureModel(t, [1.0], 0.1)
        ds = LabeledDataset(np.array([[1, 0, 0, 1]], dtype=np.uint8), [0], k=1)
        assert oracle_mean_error(ds, model).tolist() == [2.0]

    def test_empty_cluster_is_nan(self):
        t = make_line_templates(8, 0.5)
        model = MixtureModel(t, mixture_weights(2, 0.5), 0.1)
        ds = LabeledDataset(np.zeros((3, 8), dtype=np.uint8), [0, 0, 0], k=2)
        errs = oracle_mean_error(ds, model)
        assert errs[0] == 0.0
        assert math.isnan(errs[1])

    def test_concentrates_at_noise_mass(self):
        # each bit of the cluster mean sits ~q away from the binary
        # template, so the error concentrates at nq with per-cluster
        # standard deviation sqrt(n q (1-q) / |S_i|)
        n, q = 1000, 0.1
        t = make_line_templates(n, 0.5)
        model = MixtureModel(t, mixture_weights(2, 0.5), q)
        for seed in range(5):
            ds = sample_dataset(model, 300, seed)
            errs = oracle_mean_error(ds, model)
            for i in range(2):
                sigma = math.sqrt(n * q * (1 - q) / ds.members(i).size)
                assert abs(errs[i] - n * q) <= 5.0 * sigma


@pytest.fixture(scope="module")
def easy_fit():
    t = make_line_templates(512, 0.5)
    model = MixtureModel(t, mixture_weights(2, 0.5), 0.05)
    ds = sample_dataset(model, 120, 21)
    fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=2)
    return model, ds, fit


class TestEvaluateFit:
    def test_exact_recovery_setting(self, easy_fit):
        model, ds, fit = easy_fit
        ev = evaluate_fit(ds, model, fit)
        assert ev.exact_recovery
        assert ev.purity == 1.0
        assert ev.entropy == 0.0
        assert ev.template_errors.tolist() == [0.0, 0.0]
        assert sorted(ev.permutation) == [0, 1]
        assert math.isfinite(ev.log_likelihood)

    def test_exact_recovery_implies_zero_errors(self, easy_fit):
        model, ds, fit = easy_fit
        ev = evaluate_fit(ds, model, fit)
        if ev.exact_recovery:
            assert not ev.template_errors.any()

    def test_entropy_bits_property(self, easy_fit):
        model, ds, fit = easy_fit
        ev = evaluate_fit(ds, model, fit)
        assert ev.entropy_bits == ev.entropy / math.log(2)

    def test_scores_the_fit_on_its_own_examples(self, easy_fit):
        model, ds, fit = easy_fit
        ev = evaluate_fit(ds, model, fit)
        assert ev.log_likelihood == fit.diagnostics.log_likelihood

    def test_dataset_must_be_the_fitted_one(self, easy_fit):
        model, ds, fit = easy_fit
        part = LabeledDataset(ds.examples[:100], ds.labels[:100], k=2)
        with pytest.raises(DimensionError):
            evaluate_fit(part, model, fit)
        bare = FitResult(fit.templates_real, fit.templates, fit.weights,
                         fit.q0)
        with pytest.raises(DimensionError):
            evaluate_fit(ds, model, bare)

    def test_near_optimality_gaps_small_on_recovery(self, easy_fit):
        model, ds, fit = easy_fit
        gaps = near_optimality_gaps(ds, model, fit)
        assert gaps.shape == (2,)
        assert not np.isnan(gaps).any()
        # the relaxed template tracks the oracle mean almost exactly here
        assert (np.abs(gaps) < 0.1 * 0.05 * 512).all()
