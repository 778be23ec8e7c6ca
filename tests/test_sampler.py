"""Tests for mixture construction, sampling, and dataset persistence."""

import math

import numpy as np
import pytest
from numpy.random import SeedSequence

from btem.errors import ParameterError, SeparationUnachievable
from btem.sampler import (
    LabeledDataset,
    MixtureModel,
    child_seed,
    child_stream,
    load_dataset,
    make_line_templates,
    make_random_templates,
    mixture_weights,
    sample_dataset,
    save_dataset,
)
from btem.stats import moments_same_template_pair


def line_model(n, c, q, k=2, w_min=None):
    t = make_line_templates(n, c)
    w = mixture_weights(k, w_min if w_min is not None else 1.0 / k)
    return MixtureModel(t, w, q)


class TestSeedSplitting:
    def test_child_is_pure_function_of_key(self):
        a = child_seed(123, 5, 0)
        b = child_seed(123, 5, 0)
        assert a.entropy == b.entropy
        assert a.spawn_key == b.spawn_key

    def test_distinct_keys_give_distinct_streams(self):
        x = child_stream(7, 0).integers(0, 2**31, size=4)
        y = child_stream(7, 1).integers(0, 2**31, size=4)
        assert not np.array_equal(x, y)

    def test_keys_extend_spawn_key(self):
        root = SeedSequence(9, spawn_key=(2,))
        c = child_seed(root, 3)
        assert c.spawn_key == (2, 3)
        assert c.entropy == root.entropy

    def test_int_seed_equivalent_to_seed_sequence(self):
        m = line_model(16, 0.5, 0.1)
        d1 = sample_dataset(m, 10, 123)
        d2 = sample_dataset(m, 10, SeedSequence(123))
        assert np.array_equal(d1.examples, d2.examples)
        assert np.array_equal(d1.labels, d2.labels)


class TestMixtureModel:
    def test_basic_properties(self):
        m = MixtureModel([[0, 0, 0, 0], [1, 1, 0, 0]], [0.25, 0.75], 0.1)
        assert m.k == 2
        assert m.dim == 4
        assert m.w_min == 0.25
        assert m.min_separation == 2
        assert m.separation == 0.5

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            MixtureModel([[0], [1]], [0.5, 0.6], 0.1)
        with pytest.raises(ParameterError):
            MixtureModel([[0], [1]], [1.0, 0.0], 0.1)
        with pytest.raises(ParameterError):
            MixtureModel([[0], [1]], [0.5], 0.1)

    def test_q_validation(self):
        with pytest.raises(ParameterError):
            MixtureModel([[0], [1]], [0.5, 0.5], 0.5)
        with pytest.raises(ParameterError):
            MixtureModel([[0], [1]], [0.5, 0.5], -0.01)
        # q = 0 is the allowed noiseless edge case
        assert MixtureModel([[0], [1]], [0.5, 0.5], 0.0).q == 0.0

    def test_mixture_weights(self):
        w = mixture_weights(4, 0.1)
        assert w[0] == pytest.approx(0.1)
        assert np.allclose(w[1:], 0.3)
        assert w.sum() == pytest.approx(1.0)
        with pytest.raises(ParameterError):
            mixture_weights(4, 0.3)

    def test_label_range_check(self):
        with pytest.raises(ParameterError):
            LabeledDataset(np.zeros((2, 3), dtype=np.uint8), [0, 2], k=2)


class TestSampling:
    def test_golden_draw(self):
        # frozen regression pin for the seeded generator
        m = line_model(8, 0.5, 0.1, w_min=0.5)
        ds = sample_dataset(m, 3, 123)
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.examples.tolist() == [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 0, 0, 0],
            [1, 0, 1, 1, 0, 0, 0, 0],
        ]

    def test_determinism(self):
        m = line_model(32, 0.4, 0.2)
        d1 = sample_dataset(m, 20, 99)
        d2 = sample_dataset(m, 20, 99)
        assert np.array_equal(d1.examples, d2.examples)
        assert np.array_equal(d1.labels, d2.labels)

    def test_example_order_independent_streams(self):
        # example i depends only on (seed, i), not on how many came before
        m = line_model(16, 0.5, 0.3)
        big = sample_dataset(m, 12, 5)
        small = sample_dataset(m, 4, 5)
        assert np.array_equal(big.examples[:4], small.examples)
        assert np.array_equal(big.labels[:4], small.labels)

    def test_noiseless_samples_equal_templates(self):
        m = line_model(24, 0.5, 0.0)
        ds = sample_dataset(m, 30, 1)
        assert np.array_equal(ds.examples, m.templates[ds.labels])

    def test_single_component(self):
        m = MixtureModel(np.ones((1, 6), dtype=np.uint8), [1.0], 0.2)
        ds = sample_dataset(m, 25, 3)
        assert (ds.labels == 0).all()
        assert ds.k == 1

    def test_flip_rate_concentrates(self):
        # 10^6 bits at q=0.1; 5 sigma is ~0.0015
        q = 0.1
        m = line_model(10_000, 0.5, q, w_min=0.5)
        ds = sample_dataset(m, 100, 17)
        flips = (ds.examples != m.templates[ds.labels]).mean()
        tol = 5.0 * math.sqrt(q * (1 - q) / ds.examples.size)
        assert abs(flips - q) <= tol

    def test_label_frequencies_concentrate(self):
        w = (0.2, 0.8)
        m = MixtureModel([[0, 0, 0, 0], [1, 1, 1, 1]], w, 0.1)
        ds = sample_dataset(m, 100_000, 11)
        for i, wi in enumerate(w):
            freq = (ds.labels == i).mean()
            assert abs(freq - wi) <= 5.0 * math.sqrt(wi * (1 - wi) / ds.m)

    def test_component_occupancy_lower_bound(self):
        # each |S_i| >= m w_i / 2 except with probability ~2 exp(-m w_min / 8)
        m = line_model(8, 0.5, 0.1)
        for seed in (0, 1, 2):
            ds = sample_dataset(m, 10_000, seed)
            for i in range(2):
                assert ds.members(i).size >= 2500

    def test_same_template_pair_distance_moments(self):
        # cross-check the sampler against the analytic pair moments
        n, q, pairs = 1000, 0.1, 10_000
        m = MixtureModel(np.zeros((1, n), dtype=np.uint8), [1.0], q)
        ds = sample_dataset(m, 2 * pairs, 23)
        d = (ds.examples[0::2] != ds.examples[1::2]).sum(axis=1)
        mean, var = moments_same_template_pair(n, q)
        assert abs(d.mean() - mean) <= 0.01 * mean
        assert abs(d.mean() - mean) <= 5.0 * math.sqrt(var / pairs)


class TestTemplateFactories:
    def test_line_hand_values(self):
        assert make_line_templates(10, 0.5).tolist() == [
            [0] * 10,
            [1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        ]
        assert make_line_templates(7, 0.5)[1].sum() == 3

    def test_line_float_floor_guard(self):
        # 0.3 * 10 is 2.9999... in binary; the intended count is 3
        assert make_line_templates(10, 0.3)[1].sum() == 3

    def test_line_zero_separation(self):
        t = make_line_templates(6, 0.0)
        assert np.array_equal(t[0], t[1])

    def test_line_c_validation(self):
        with pytest.raises(ParameterError):
            make_line_templates(10, 1.2)
        with pytest.raises(ParameterError):
            make_line_templates(10, -0.1)

    def test_random_templates_meet_separation(self):
        t = make_random_templates(1000, 3, 0.4, seed=0)
        assert t.shape == (3, 1000)
        for a in range(3):
            for b in range(a + 1, 3):
                assert (t[a] != t[b]).sum() >= 400

    def test_random_templates_deterministic(self):
        t1 = make_random_templates(200, 4, 0.3, seed=9)
        t2 = make_random_templates(200, 4, 0.3, seed=9)
        assert np.array_equal(t1, t2)

    def test_random_templates_unachievable(self):
        # three templates in {0,1}^2 cannot be pairwise 2 apart
        with pytest.raises(SeparationUnachievable):
            make_random_templates(2, 3, 1.0, seed=0)

    def test_single_template_has_no_constraint(self):
        t = make_random_templates(16, 1, 0.9, seed=4)
        assert t.shape == (1, 16)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        m = line_model(19, 0.4, 0.2)
        ds = sample_dataset(m, 15, 31)
        p = tmp_path / "data.txt"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.examples, ds.examples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.k == ds.k

    def test_file_format(self, tmp_path):
        ds = LabeledDataset(
            np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1], [0] * 9], dtype=np.uint8),
            [1, 0],
            k=2,
        )
        p = tmp_path / "tiny.txt"
        save_dataset(ds, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "n=9 m=2 k=2"
        # little-endian packing: bit 0 -> 0x01 in byte 0, bit 8 -> 0x01 in byte 1
        assert lines[1] == "1 0101"
        assert lines[2] == "0 0000"

    def test_malformed_inputs(self, tmp_path):
        cases = [
            "n=4 m=1\n0 00\n",                # missing k
            "n=4 m=1 k=1\n0\n",               # missing hex field
            "n=4 m=1 k=1\n0 zz\n",            # bad hex
            "n=4 m=2 k=1\n0 00\n",            # row count mismatch
            "n=4 m=1 k=1\n0 0000\n",          # wrong byte count
            "n=4 m=1 k=1\n3 00\n",            # label out of range
            "n=4 m=1 k=2\n0 00\n1 00\n0 00\n",  # records past m
            # m x n would need ~10^16 bytes: rejected before allocating
            "n=1000000 m=10000000000 k=2\n0 00\n",
        ]
        for i, text in enumerate(cases):
            p = tmp_path / f"bad{i}.txt"
            p.write_text(text)
            with pytest.raises(ValueError):
                load_dataset(p)

    @pytest.mark.parametrize("text", [
        "n=4 m=2 k=2\n0 01\n1 02",      # last record without its newline
        "n=4 m=2 k=2\n0 01\n1 02\n\n",  # trailing blank line
    ])
    def test_file_ends_that_still_load(self, text, tmp_path):
        p = tmp_path / "ends.txt"
        p.write_text(text)
        back = load_dataset(p)
        assert back.labels.tolist() == [0, 1]
        assert back.examples.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]

    def test_padding_bits_must_be_zero(self, tmp_path):
        p = tmp_path / "pad.txt"
        p.write_text("n=4 m=1 k=1\n0 f0\n")
        with pytest.raises(ValueError):
            load_dataset(p)
