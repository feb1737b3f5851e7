"""Mask distribution, concrete sampling, clamp, and ticket format tests."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cts.tensor as T
from cts.mask import (KAPPA_CLAMP, TAU_DEFAULT, MaskDistribution, MaskError,
                      Ticket, clamp_topk, expected_density, init_distribution,
                      invert_clamp, load_ticket, sample_logistic,
                      save_ticket, soft_mask,
                      sparsity_loss, sparsity_loss_grad, step_rng,
                      ticket_size, topk_mask)


class TestInit:
    def test_alpha_starts_at_kappa(self):
        dist = init_distribution(100, 0.3)
        np.testing.assert_allclose(dist.alpha, 0.3, rtol=1e-12)
        assert expected_density(dist) == pytest.approx(0.3)

    def test_kappa_one_clamped_finite(self):
        dist = init_distribution(10, 1.0)
        assert np.all(np.isfinite(dist.logits))
        np.testing.assert_allclose(dist.alpha, KAPPA_CLAMP, rtol=1e-12)

    def test_invalid_kappa(self):
        for k in (0.0, -0.1, 1.5):
            with pytest.raises(MaskError):
                init_distribution(10, k)

    def test_invalid_tau(self):
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(MaskError, match="tau"):
                init_distribution(10, 0.5, tau=tau)

    def test_default_tau(self):
        assert TAU_DEFAULT == pytest.approx(2.0 / 3.0)


def _sigmoid(t):
    """1 / (1 + exp(-t)) composed from tracked primitives."""
    return T.power(T.add(1.0, T.exp(T.neg(t))), -1.0)


def _sort_topk_mask(scores, kappa):
    """The reference cut: the first n of a stable sort of descending score."""
    n = ticket_size(kappa, scores.size)
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(scores.size, dtype=np.int64)
    mask[order[:n]] = 1
    return mask


def _sample(dist, rng):
    return soft_mask(dist.logits, sample_logistic(rng, dist.d), dist.tau)


class TestSampling:
    def test_logistic_moments(self):
        rng = np.random.default_rng(0)
        eps = sample_logistic(rng, 200_000)
        # logistic(0,1): mean 0, variance pi^2/3
        assert abs(eps.mean()) < 0.02
        assert abs(eps.var() - np.pi ** 2 / 3) < 0.05

    def test_soft_mask_in_unit_interval(self):
        dist = init_distribution(1000, 0.2)
        sm = _sample(dist, step_rng(0, 0))
        assert np.all(sm > 0) and np.all(sm < 1)

    def test_soft_mask_mean_tracks_alpha(self):
        # P(s > 1/2) = alpha exactly for the binary concrete
        dist = init_distribution(100_000, 0.3)
        sm = _sample(dist, step_rng(0, 0))
        assert abs((sm > 0.5).mean() - 0.3) < 0.01

    def test_logistic_redraws_the_unit_interval_ends(self):
        # u = 0 or 1 would give an infinite logit; only those entries are
        # drawn again, in order, until none is left
        draws = iter([np.array([0.0, 0.5, 1.0, 0.25]), np.array([1.0, 0.75]),
                      np.array([0.125])])
        rng = SimpleNamespace(random=lambda n: next(draws)[:n])
        eps = sample_logistic(rng, 4)
        u = np.array([0.125, 0.5, 0.75, 0.25])
        np.testing.assert_array_equal(eps, np.log(u) - np.log1p(-u))

    def test_step_rng_deterministic_and_distinct(self):
        a = step_rng(7, 3).random(4)
        b = step_rng(7, 3).random(4)
        c = step_rng(7, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_low_tau_sharpens(self):
        dist_hi = MaskDistribution(np.full(5000, 0.8), tau=2.0)
        dist_lo = MaskDistribution(np.full(5000, 0.8), tau=0.05)
        hi = _sample(dist_hi, step_rng(1, 0))
        lo = _sample(dist_lo, step_rng(1, 0))
        # lower temperature pushes samples toward {0, 1}
        assert np.abs(lo - 0.5).mean() > np.abs(hi - 0.5).mean()

    def test_soft_mask_matches_closed_form(self):
        dist = init_distribution(50, 0.4)
        eps = sample_logistic(step_rng(0, 0), 50)
        sm = soft_mask(dist.logits, eps, dist.tau)
        expected = 1 / (1 + np.exp(-(dist.logits + eps) / dist.tau))
        np.testing.assert_allclose(sm, expected, rtol=1e-12)

    def test_soft_mask_saturates_without_overflow(self):
        logits = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        with np.errstate(over="raise"):
            sm = soft_mask(logits, np.zeros(5), 0.05)
        np.testing.assert_array_equal(sm, [0.0, 0.0, 0.5, 1.0, 1.0])


class TestAlpha:
    def test_alpha_recomputed_when_logits_replaced(self):
        dist = MaskDistribution(np.zeros(8), TAU_DEFAULT)
        first = dist.alpha
        assert dist.alpha is first
        dist.logits = np.full(8, 2.0)
        np.testing.assert_allclose(dist.alpha, 1 / (1 + np.exp(-2.0)), rtol=1e-15)
        assert expected_density(dist) == pytest.approx(1 / (1 + np.exp(-2.0)))

    def test_alpha_is_read_only(self):
        dist = init_distribution(8, 0.3)
        with pytest.raises(ValueError):
            dist.alpha[0] = 1.0


class TestSparsityLoss:
    def test_zero_at_target(self):
        dist = init_distribution(100, 0.25)
        assert sparsity_loss(dist, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_sign(self):
        dist = init_distribution(100, 0.5)
        assert sparsity_loss(dist, 0.25) > 0
        assert sparsity_loss(dist, 0.9) < 0

    def test_analytic_grad_matches_backward(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(40)
        dist = MaskDistribution(logits, TAU_DEFAULT)
        kappa = 0.3
        analytic = sparsity_loss_grad(dist, kappa)
        leaf = T.Tensor(logits, requires_grad=True)
        ls = T.add(T.mul(T.sum_(_sigmoid(leaf)), 1.0 / (kappa * 40)), -1.0)
        (g,) = T.backward(ls, [leaf])
        np.testing.assert_allclose(analytic, g.data, rtol=1e-10, atol=1e-12)


class TestClamp:
    def test_keeps_most_probable(self):
        logits = np.array([3.0, -1.0, 2.0, 0.0, -2.0, 1.0])
        dist = MaskDistribution(logits, TAU_DEFAULT)
        t = clamp_topk(dist, 0.5)
        np.testing.assert_array_equal(t.mask, [1, 0, 1, 0, 0, 1])

    def test_invert_keeps_least_probable(self):
        logits = np.array([3.0, -1.0, 2.0, 0.0, -2.0, 1.0])
        dist = MaskDistribution(logits, TAU_DEFAULT)
        t = invert_clamp(dist, 0.5)
        np.testing.assert_array_equal(t.mask, [0, 1, 0, 1, 1, 0])

    def test_round_half_up(self):
        dist = MaskDistribution(np.arange(10.0), TAU_DEFAULT)
        assert clamp_topk(dist, 0.25).mask.sum() == 3  # 2.5 rounds up
        assert clamp_topk(dist, 0.24).mask.sum() == 2

    def test_ties_broken_by_lower_index(self):
        dist = MaskDistribution(np.zeros(6), TAU_DEFAULT)
        t = clamp_topk(dist, 0.5)
        np.testing.assert_array_equal(t.mask, [1, 1, 1, 0, 0, 0])

    def test_empty_ticket_rejected(self):
        dist = MaskDistribution(np.zeros(100), TAU_DEFAULT)
        with pytest.raises(MaskError):
            clamp_topk(dist, 0.004)

    @given(st.integers(2, 400), st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_cardinality_property(self, d, kappa):
        n = int(np.floor(kappa * d + 0.5))
        dist = MaskDistribution(np.random.default_rng(d).standard_normal(d),
                                TAU_DEFAULT)
        if n <= 0:
            with pytest.raises(MaskError):
                clamp_topk(dist, kappa)
        else:
            assert clamp_topk(dist, kappa).mask.sum() == n

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.6, 0.8])
    def test_topk_mask_keeps_neg_inf_last(self, kappa):
        # the rule iterative pruners rely on to keep pruned weights pruned
        scores = np.array([1.0, -np.inf, 2.0, 2.0, -np.inf, 0.5, -np.inf, 2.0, -3.0, -np.inf])
        m = topk_mask(scores, kappa)
        finite = np.isfinite(scores)
        assert m.sum() == ticket_size(kappa, scores.size)
        assert not (np.any(m[~finite]) and not np.all(m[finite]))
        # ties, -inf ones included, go to the lower index
        order = [2, 3, 7, 0, 5, 8, 1, 4, 6, 9]
        np.testing.assert_array_equal(np.flatnonzero(m), sorted(order[:m.sum()]))

    @pytest.mark.parametrize("seed, kind", enumerate(["integers", "normal", "specials", "pruned"]))
    def test_topk_mask_equals_stable_sort(self, seed, kind):
        # the selection keeps what the stable sort keeps, bit for bit: ties,
        # +-inf, NaN (also fewer numbers than n) and +-0.0, from n = 1 to n = d
        rng = np.random.default_rng(seed)
        specials = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 2.0])
        for _ in range(300):
            d = int(rng.integers(1, 200))
            if kind == "integers":
                scores = rng.integers(-3, 4, d).astype(np.float64)
            elif kind == "normal":
                scores = rng.standard_normal(d)
            elif kind == "specials":
                scores = rng.choice(specials, d)
            else:  # an iterative pruner's form
                scores = np.where(rng.random(d) < 0.5, -np.inf, rng.integers(-2, 3, d) * 1.0)
            n = int(rng.integers(1, d + 1))
            for kappa in (n / d, 1 / d, 1.0):
                np.testing.assert_array_equal(topk_mask(scores, kappa),
                                              _sort_topk_mask(scores, kappa))

    def test_invert_disjoint_when_half(self):
        dist = MaskDistribution(np.random.default_rng(0).standard_normal(10),
                                TAU_DEFAULT)
        a = clamp_topk(dist, 0.5).mask
        b = invert_clamp(dist, 0.5).mask
        assert np.all(a + b <= 1)


class TestTicket:
    def test_density_and_indices(self):
        t = Ticket(mask=np.array([1, 0, 1, 1, 0]))
        assert t.density == pytest.approx(0.6)
        np.testing.assert_array_equal(t.indices(), [0, 2, 3])

    def test_per_layer_density(self):
        t = Ticket(mask=np.array([1, 0, 1, 1]), layout=[("a.w", 2), ("b.w", 2)])
        assert t.per_layer_density() == [("a.w", 0.5), ("b.w", 1.0)]

    def test_roundtrip(self, tmp_path):
        mask = np.random.default_rng(0).integers(0, 2, 30)
        mask[0] = 1  # ensure non-empty
        t = Ticket(mask=mask, layout=[("a.w", 10), ("b.w", 20)])
        path = tmp_path / "t.json"
        save_ticket(path, t, arch="tiny-mlp", kappa=0.5, meta={"note": "x"})
        loaded, meta = load_ticket(path)
        np.testing.assert_array_equal(loaded.mask, t.mask)
        assert loaded.layout == t.layout
        assert meta["arch"] == "tiny-mlp"
        assert meta["kappa"] == 0.5

    @pytest.mark.parametrize("kept", [0, 1, 35_840])
    @pytest.mark.parametrize("meta", [None, {"method": "cts", "seed": 3,
                                             "extra": {"indices": [1, 2], "x": 0.25}}])
    def test_bytes_are_json_dump_indent_0(self, tmp_path, kept, meta):
        # the canonical form: json.dump(doc, f, indent=0, sort_keys=True) + "\n"
        d = 71_680
        mask = np.zeros(d, dtype=np.int64)
        mask[np.random.default_rng(kept).choice(d, kept, replace=False)] = 1
        t = Ticket(mask=mask, layout=[("fc1.w", 50_176), ("fc2.w", d - 50_176)])
        save_ticket(tmp_path / "t.json", t, arch="mlp-2x256", kappa=0.5, meta=meta)
        doc = {"version": 1, "arch": "mlp-2x256", "d": d, "kappa": 0.5,
               "density": kept / d, "layout": [["fc1.w", 50_176], ["fc2.w", d - 50_176]],
               "indices": [int(i) for i in np.flatnonzero(mask)]}
        if meta:
            doc["meta"] = meta
        with open(tmp_path / "ref.json", "w") as f:
            json.dump(doc, f, indent=0, sort_keys=True)
            f.write("\n")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_file_is_bit_stable(self, tmp_path):
        t = Ticket(mask=np.array([0, 1, 1, 0, 1]))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_ticket(p1, t, arch="x", kappa=0.6)
        save_ticket(p2, t, arch="x", kappa=0.6)
        assert p1.read_bytes() == p2.read_bytes()
