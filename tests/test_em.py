"""Tests for the two-round EM pipeline and its building blocks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btem.em import (
    Q_FLOOR,
    FitResult,
    e_step,
    estimate_q0,
    farthest_first_select,
    initial_cluster_count,
    log_likelihood,
    m_step,
    prune_by_weight,
    standard_em,
    two_round_em,
)
from btem.errors import (
    AllClustersStarved,
    InsufficientData,
    InsufficientInput,
    ParameterError,
    TooFewClusters,
)
from btem.sampler import (
    MixtureModel,
    child_stream,
    make_line_templates,
    make_random_templates,
    mixture_weights,
    sample_dataset,
)


def line_dataset(n, c, q, m, seed, k=2):
    t = make_line_templates(n, c)
    model = MixtureModel(t, mixture_weights(k, 1.0 / k), q)
    return model, sample_dataset(model, m, seed)


def rational_posteriors(X, T, w, q):
    """Exact posterior matrix over binary templates, via Fraction arithmetic."""
    q = Fraction(q)
    out = []
    for x in X:
        row = []
        for i, t in enumerate(T):
            d = int((x != t).sum())
            row.append(Fraction(w[i]) * q**d * (1 - q) ** (len(x) - d))
        z = sum(row)
        out.append([r / z for r in row])
    return out


class TestInitialClusterCount:
    def test_hand_values(self):
        l, w_t = initial_cluster_count(0.5, 0.1)
        assert l == 30
        assert w_t == pytest.approx(1.0 / 120.0)
        assert initial_cluster_count(0.4, 0.1)[0] == 40

    def test_formula(self):
        for w_min, delta in [(0.3, 0.05), (0.9, 0.2), (1.0, 0.5)]:
            l, w_t = initial_cluster_count(w_min, delta)
            assert l == math.ceil((4 / w_min) * math.log(2 / (delta * w_min)))
            assert w_t == 1.0 / (4 * l)

    def test_degenerate_near_one(self):
        l, _ = initial_cluster_count(1.0, 1.0 - 1e-12)
        assert l == 3

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_halving_w_min_never_decreases_l(self, w_min, delta):
        assert (
            initial_cluster_count(w_min / 2, delta)[0]
            >= initial_cluster_count(w_min, delta)[0]
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            initial_cluster_count(0.0, 0.1)
        with pytest.raises(ParameterError):
            initial_cluster_count(0.5, 1.0)


class TestNoiseEstimate:
    def test_solves_quadratic(self):
        # min pairwise distance 9 over n=50: q(1-q) = 0.09 -> q = 0.1
        t = np.zeros((2, 50), dtype=np.uint8)
        t[1, :9] = 1
        q0, clamped = estimate_q0(t)
        assert q0 == pytest.approx(0.1)
        assert not clamped

    def test_boundary_root(self):
        # distance 25 over n=50: v = 0.25 -> q = 0.5 via the exact root
        t = np.zeros((2, 50), dtype=np.uint8)
        t[1, :25] = 1
        q0, clamped = estimate_q0(t)
        assert q0 == pytest.approx(0.5)
        assert not clamped

    def test_clamps_above_quarter(self):
        t = np.zeros((2, 50), dtype=np.uint8)
        t[1, :30] = 1
        q0, clamped = estimate_q0(t)
        assert q0 == 0.5
        assert clamped

    def test_identical_seeds_floor(self):
        t = np.ones((3, 20), dtype=np.uint8)
        q0, clamped = estimate_q0(t)
        assert q0 == Q_FLOOR
        assert clamped

    def test_needs_two_seeds(self):
        with pytest.raises(InsufficientInput):
            estimate_q0(np.ones((1, 8), dtype=np.uint8))

    def test_concentration_on_sampled_data(self):
        # q0(1-q0) should land in (1-q) (q +- 0.2 sqrt(q)) on most draws
        n, q, m = 2000, 0.1, 300
        lo = (1 - q) * (q - 0.2 * math.sqrt(q))
        hi = (1 - q) * (q + 0.2 * math.sqrt(q))
        l, _ = initial_cluster_count(0.5, 0.1)
        ok = 0
        runs = 40
        for trial in range(runs):
            _, ds = line_dataset(n, 0.5, q, m, trial)
            idx = child_stream(trial, 0).choice(m, size=l, replace=False)
            q0, _ = estimate_q0(ds.examples[idx])
            if lo <= q0 * (1 - q0) <= hi:
                ok += 1
        assert ok >= math.ceil(0.95 * runs)


class TestEStep:
    def test_two_point_hand_value(self):
        # densities 0.81 and 0.01 at q=0.1 give posteriors 81/82, 1/82
        X = np.array([[0, 0]], dtype=np.uint8)
        T = np.array([[0.0, 0.0], [1.0, 1.0]])
        a = e_step(X, T, [0.5, 0.5], 0.1)
        assert a.posteriors[0, 0] == pytest.approx(81.0 / 82.0, rel=1e-12)
        assert a.posteriors[0, 1] == pytest.approx(1.0 / 82.0, rel=1e-12)

    def test_uninformative_at_half(self):
        X = np.array([[0, 1, 0], [1, 1, 1]], dtype=np.uint8)
        T = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        a = e_step(X, T, [0.3, 0.7], 0.5)
        assert np.allclose(a.posteriors, [[0.3, 0.7], [0.3, 0.7]])

    def test_single_template(self):
        X = np.array([[0, 1]], dtype=np.uint8)
        a = e_step(X, np.array([[0.5, 0.5]]), [1.0], 0.2)
        assert a.posteriors.tolist() == [[1.0]]

    def test_q_validation(self):
        X = np.zeros((1, 2), dtype=np.uint8)
        T = np.zeros((1, 2))
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(ParameterError):
                e_step(X, T, [1.0], bad)

    def test_weight_validation(self):
        X = np.zeros((1, 2), dtype=np.uint8)
        T = np.zeros((2, 2))
        with pytest.raises(ParameterError):
            e_step(X, T, [0.4, 0.4], 0.1)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed, r):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(10, 40), dtype=np.uint8)
        T = rng.uniform(size=(r, 40))
        w = rng.uniform(0.1, 1.0, size=r)
        w /= w.sum()
        a = e_step(X, T, w, 0.2)
        assert np.allclose(a.posteriors.sum(axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_rational_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        r = int(rng.integers(2, 5))
        X = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
        T = rng.integers(0, 2, size=(r, n), dtype=np.uint8)
        ints = rng.integers(1, 9, size=r)
        w = [Fraction(int(v), int(ints.sum())) for v in ints]
        q = Fraction(int(rng.integers(1, 50)), 100)
        a = e_step(X, T.astype(float), [float(x) for x in w], float(q))
        exact = rational_posteriors(X, T, w, q)
        for j in range(6):
            for i in range(r):
                assert a.posteriors[j, i] == pytest.approx(
                    float(exact[j][i]), rel=1e-10
                )


class TestMStep:
    def test_hard_assignment_gives_cluster_means(self):
        X = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8)
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        a = e_step(X, np.zeros((2, 2)), [0.5, 0.5], 0.1)
        a.posteriors = P
        w, T = m_step(X, a)
        assert np.allclose(w, [2 / 3, 1 / 3])
        assert np.allclose(T, [[0.5, 0.0], [1.0, 1.0]])

    def test_uniform_posteriors_give_global_mean(self):
        X = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        a = e_step(X, np.zeros((2, 2)), [0.5, 0.5], 0.1)
        a.posteriors = np.full((4, 2), 0.5)
        w, T = m_step(X, a)
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(T, [[0.5, 0.5], [0.5, 0.5]])

    def test_empty_cluster_keeps_previous_template(self):
        X = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        a = e_step(X, np.zeros((2, 2)), [0.5, 0.5], 0.1)
        a.posteriors = np.array([[1.0, 0.0], [1.0, 0.0]])
        prev = np.array([[0.0, 0.0], [0.25, 0.75]])
        w, T = m_step(X, a, prev_templates=prev)
        assert w.tolist() == [1.0, 0.0]
        assert np.allclose(T[1], prev[1])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(30, 16), dtype=np.uint8)
        T = rng.uniform(size=(4, 16))
        w = np.full(4, 0.25)
        a = e_step(X, T, w, 0.3)
        w2, T2 = m_step(X, a, prev_templates=T)
        assert w2.sum() == pytest.approx(1.0, abs=1e-9)
        assert T2.min() >= 0.0 and T2.max() <= 1.0


class TestPruning:
    def test_hand_value(self):
        assert prune_by_weight([0.5, 0.3, 0.01], 1.0 / 12).tolist() == [0, 1]

    def test_uniform_weights_all_survive(self):
        l = 20
        w = np.full(l, 1.0 / l)
        assert prune_by_weight(w, 1.0 / (4 * l)).tolist() == list(range(l))

    def test_all_starved(self):
        with pytest.raises(AllClustersStarved):
            prune_by_weight([0.001, 0.002], 0.25)

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            prune_by_weight([0.5, 0.5], 0.0)


class TestFarthestFirst:
    def test_hand_example(self):
        T = np.array(
            [[0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0]],
            dtype=np.float64,
        )
        # from template 0 the min distances are 6 and 4; 6 wins
        sel = farthest_first_select(T, 2, weights=[0.5, 0.3, 0.2],
                                    deterministic=True)
        assert sel == [0, 1]

    def test_all_selected_when_k_equals_count(self):
        T = np.eye(3)
        sel = farthest_first_select(T, 3, weights=[0.2, 0.5, 0.3],
                                    deterministic=True)
        assert sorted(sel) == [0, 1, 2]

    def test_k_one_returns_seed_only(self):
        T = np.eye(3)
        sel = farthest_first_select(T, 1, weights=[0.2, 0.5, 0.3],
                                    deterministic=True)
        assert sel == [1]

    def test_tie_breaks_to_lowest_index(self):
        T = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        sel = farthest_first_select(T, 2, weights=[0.9, 0.05, 0.05],
                                    deterministic=True)
        assert sel == [0, 1]

    def test_too_few_survivors(self):
        with pytest.raises(TooFewClusters):
            farthest_first_select(np.eye(2), 3, weights=[0.5, 0.5],
                                  deterministic=True)

    def test_random_seed_pick_uses_rng(self):
        T = np.eye(4)
        sels = {
            tuple(farthest_first_select(T, 2, rng=child_stream(s, 0)))
            for s in range(20)
        }
        assert len({s[0] for s in sels}) > 1  # seed pick varies with the stream

    def test_greedy_max_min_property(self):
        rng = np.random.default_rng(1)
        T = rng.uniform(size=(8, 12))
        sel = farthest_first_select(T, 4, weights=np.full(8, 0.125),
                                    deterministic=True)
        chosen = []
        for idx in sel:
            if chosen:
                dmin = {
                    j: min(np.abs(T[j] - T[c]).sum() for c in chosen)
                    for j in range(8)
                    if j not in chosen
                }
                best = max(dmin.values())
                assert dmin[idx] == pytest.approx(best)
            chosen.append(idx)


class TestTwoRoundEM:
    def test_deterministic_given_seed(self):
        _, ds = line_dataset(64, 0.5, 0.1, 80, 7)
        f1 = two_round_em(ds.examples, 2, 0.5, 0.1, seed=3)
        f2 = two_round_em(ds.examples, 2, 0.5, 0.1, seed=3)
        assert np.array_equal(f1.templates, f2.templates)
        assert np.allclose(f1.templates_real, f2.templates_real)
        assert f1.q0 == f2.q0
        assert f1.diagnostics.log_likelihood == f2.diagnostics.log_likelihood

    def test_noiseless_exact_recovery(self):
        model, ds = line_dataset(64, 0.5, 0.0, 100, 11)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=0)
        got = {tuple(t) for t in fit.templates.tolist()}
        want = {tuple(t) for t in model.templates.tolist()}
        assert got == want

    def test_single_cluster_gives_rounded_mean(self):
        t = np.ones((1, 40), dtype=np.uint8)
        model = MixtureModel(t, [1.0], 0.2)
        ds = sample_dataset(model, 60, 5)
        fit = two_round_em(ds.examples, 1, 1.0, 0.1, seed=2)
        assert np.array_equal(fit.templates[0], t[0])
        assert fit.weights.tolist() == [1.0]

    def test_insufficient_examples(self):
        _, ds = line_dataset(16, 0.5, 0.1, 20, 0)
        # w_min=0.5, delta=0.1 needs l=30 > 20
        with pytest.raises(InsufficientData):
            two_round_em(ds.examples, 2, 0.5, 0.1, seed=0)

    def test_extra_rounds_still_recover(self):
        model, ds = line_dataset(256, 0.5, 0.1, 120, 13)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=1, rounds=5)
        assert fit.diagnostics.iterations == 5
        got = {tuple(t) for t in fit.templates.tolist()}
        assert got == {tuple(t) for t in model.templates.tolist()}

    def test_round1_binarize_mode(self):
        model, ds = line_dataset(256, 0.5, 0.1, 120, 17)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=1,
                           round1_binarize=True)
        got = {tuple(t) for t in fit.templates.tolist()}
        assert got == {tuple(t) for t in model.templates.tolist()}

    def test_deterministic_prune_mode(self):
        # the first selection is pinned to the max-weight survivor
        _, ds = line_dataset(64, 0.5, 0.1, 80, 19)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=4,
                           deterministic_prune=True)
        d = fit.diagnostics
        surv = d.survivor_indices
        heaviest = int(surv[np.argmax(d.round1_weights[surv])])
        assert d.selection_order[0] == heaviest

    def test_diagnostics_structure(self):
        _, ds = line_dataset(64, 0.5, 0.1, 80, 23)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=6)
        d = fit.diagnostics
        l, w_t = initial_cluster_count(0.5, 0.1)
        assert d.init_indices.shape == (l,)
        assert len(np.unique(d.init_indices)) == l
        assert d.round1_weights.shape == (l,)
        assert d.round1_templates.shape == (l, 64)
        assert set(d.selection_order) <= set(d.survivor_indices.tolist())
        assert len(d.selection_order) == 2
        assert np.intersect1d(d.pruned_indices, d.survivor_indices).size == 0
        assert d.pruned_indices.size + d.survivor_indices.size == l
        assert (d.round1_weights[d.survivor_indices] >= w_t).all()
        assert d.wall_time_s > 0.0

    def test_validation(self):
        _, ds = line_dataset(16, 0.5, 0.1, 40, 0)
        with pytest.raises(ParameterError):
            two_round_em(ds.examples, 0, 0.5, 0.1, seed=0)
        with pytest.raises(ParameterError):
            two_round_em(ds.examples, 2, 0.5, 0.1, seed=0, rounds=1)


class TestStandardEM:
    def test_runs_and_rounds(self):
        model, ds = line_dataset(128, 0.5, 0.05, 60, 3)
        fit = standard_em(ds.examples, 2, 0.05, iterations=2, restarts=5,
                          seed=1)
        assert fit.templates.shape == (2, 128)
        assert fit.diagnostics.restart_index in range(5)
        assert fit.weights.sum() == pytest.approx(1.0)

    def test_noiseless_recovery_when_picks_cover(self):
        model, ds = line_dataset(64, 0.5, 0.0, 100, 29)
        # restarts make covering picks overwhelmingly likely
        fit = standard_em(ds.examples, 2, Q_FLOOR, iterations=3, restarts=8,
                          seed=0)
        got = {tuple(t) for t in fit.templates.tolist()}
        assert got == {tuple(t) for t in model.templates.tolist()}

    def test_more_restarts_never_lose_likelihood(self):
        _, ds = line_dataset(64, 0.5, 0.15, 60, 31)
        lls = [
            standard_em(ds.examples, 2, 0.15, iterations=3, restarts=r,
                        seed=5).diagnostics.log_likelihood
            for r in (1, 3, 6, 10)
        ]
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9

    def test_restart_streams_are_stable(self):
        # the winning restart's fit is identical whether or not more
        # restarts were examined after it
        _, ds = line_dataset(64, 0.5, 0.15, 60, 37)
        f3 = standard_em(ds.examples, 2, 0.15, iterations=3, restarts=3, seed=5)
        f6 = standard_em(ds.examples, 2, 0.15, iterations=3, restarts=6, seed=5)
        if f6.diagnostics.restart_index < 3:
            assert f6.diagnostics.restart_index == f3.diagnostics.restart_index
            assert np.array_equal(f6.templates, f3.templates)

    def test_insufficient_examples(self):
        with pytest.raises(InsufficientData):
            standard_em(np.zeros((2, 8), dtype=np.uint8), 3, 0.1,
                        iterations=1, restarts=1, seed=0)

    def test_log_likelihood_monotone_after_first_update(self):
        # with relaxed templates (any iterate after the first M-step) the
        # E/M pair does not decrease the objective at these settings;
        # the jump from the binary initialization itself can decrease it
        for q, seed in [(0.1, 0), (0.1, 1), (0.01, 2), (0.2, 3)]:
            _, ds = line_dataset(2000, 0.5, max(q, 0.01), 300, seed)
            X = ds.examples
            idx = child_stream(seed, 1).choice(300, size=2, replace=False)
            T = X[idx].astype(float)
            w = np.full(2, 0.5)
            lls = []
            for _ in range(8):
                a = e_step(X, T, w, q)
                w, T = m_step(X, a, prev_templates=T)
                lls.append(log_likelihood(X, T, w, q))
            for a_, b_ in zip(lls, lls[1:]):
                assert b_ >= a_ - 1e-6


class TestLogLikelihood:
    def test_perfect_single_template(self):
        X = np.array([[0, 1, 1, 0, 1]], dtype=np.uint8)
        for q in (0.1, 0.3, 0.5):
            ll = log_likelihood(X, X.astype(float), [1.0], q)
            assert ll == pytest.approx(5 * math.log(1 - q))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(12, 20), dtype=np.uint8)
        T = rng.uniform(size=(3, 20))
        w = np.array([0.2, 0.3, 0.5])
        ll = log_likelihood(X, T, w, 0.2)
        perm = [2, 0, 1]
        assert log_likelihood(X, T[perm], w[perm], 0.2) == pytest.approx(ll)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_product(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        r = int(rng.integers(1, 4))
        X = rng.integers(0, 2, size=(5, n), dtype=np.uint8)
        T = rng.integers(0, 2, size=(r, n), dtype=np.uint8).astype(float)
        w = rng.uniform(0.1, 1.0, size=r)
        w /= w.sum()
        q = float(rng.uniform(0.05, 0.45))
        want = 0.0
        for x in X:
            dens = 0.0
            for i in range(r):
                d = int(np.abs(x - T[i]).sum())
                dens += w[i] * q**d * (1 - q) ** (n - d)
            want += math.log(dens)
        got = log_likelihood(X, T, w, q)
        assert got == pytest.approx(want, rel=1e-12)

    def test_q_validation(self):
        X = np.zeros((1, 4), dtype=np.uint8)
        with pytest.raises(ParameterError):
            log_likelihood(X, X.astype(float), [1.0], 0.0)


class TestFitResult:
    def test_invariants_enforced(self):
        T = np.zeros((1, 4))
        with pytest.raises(ParameterError):
            FitResult(T, T.astype(np.uint8), np.array([1.0]), q0=0.0)
        with pytest.raises(ParameterError):
            FitResult(T, T.astype(np.uint8), np.array([0.7]), q0=0.1)

    def test_rounding_consistency(self):
        _, ds = line_dataset(64, 0.5, 0.1, 80, 41)
        fit = two_round_em(ds.examples, 2, 0.5, 0.1, seed=9)
        assert np.array_equal(fit.templates, (fit.templates_real >= 0.5))
        assert fit.k == 2

    @pytest.mark.parametrize("fit_fn", [
        lambda X: two_round_em(X, 2, 0.5, 0.1, seed=9),
        lambda X: standard_em(X, 2, 0.1, iterations=3, restarts=3, seed=9),
    ])
    def test_assignment_is_the_final_e_step(self, fit_fn):
        _, ds = line_dataset(64, 0.5, 0.1, 80, 41)
        fit = fit_fn(ds.examples)
        want = e_step(ds.examples, fit.templates_real, fit.weights, fit.q0)
        assert np.array_equal(fit.assignment.posteriors, want.posteriors)
        assert np.array_equal(fit.assignment.log_normalizers,
                              want.log_normalizers)
        assert fit.diagnostics.log_likelihood == log_likelihood(
            ds.examples, fit.templates_real, fit.weights, fit.q0)


def random_dataset(seed, n=301, m=200, k=3):
    T = make_random_templates(n, k, 0.3, seed)
    model = MixtureModel(T, mixture_weights(k, 0.25), 0.1)
    return sample_dataset(model, m, 100 + seed).examples


class TestMetamorphic:
    """Symmetries of the model that any refactor of the fit must keep."""

    @pytest.mark.parametrize("seed", range(4))
    def test_column_permutation_permutes_templates(self, seed):
        X = random_dataset(seed)
        perm = np.random.default_rng(seed).permutation(X.shape[1])
        fit = two_round_em(X, 3, 0.25, 0.1, seed=seed)
        fit_p = two_round_em(X[:, perm], 3, 0.25, 0.1, seed=seed)
        assert np.array_equal(fit_p.templates, fit.templates[:, perm])
        np.testing.assert_allclose(fit_p.templates_real,
                                   fit.templates_real[:, perm], rtol=0, atol=1e-9)
        assert fit_p.q0 == fit.q0

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_maps_templates_to_one_minus(self, seed):
        # rounded templates need not complement exactly: 0.5 rounds to 1
        X = random_dataset(seed)
        fit = two_round_em(X, 3, 0.25, 0.1, seed=seed)
        fit_c = two_round_em(1 - X, 3, 0.25, 0.1, seed=seed)
        np.testing.assert_allclose(fit_c.templates_real,
                                   1.0 - fit.templates_real, rtol=0, atol=1e-9)
        assert fit_c.q0 == fit.q0
        np.testing.assert_allclose(fit_c.weights, fit.weights, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacking_data_leaves_em_round_unchanged(self, seed):
        X = random_dataset(seed)
        rng = np.random.default_rng(seed)
        T = rng.uniform(size=(4, X.shape[1]))
        w = np.full(4, 0.25)
        w1, T1 = m_step(X, e_step(X, T, w, 0.2), prev_templates=T)
        XX = np.vstack([X, X])
        w2, T2 = m_step(XX, e_step(XX, T, w, 0.2), prev_templates=T)
        np.testing.assert_allclose(w2, w1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(T2, T1, rtol=0, atol=1e-12)
