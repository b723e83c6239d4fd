"""The training targets of predictor.targets, one tensor at a time, the
loss helpers of beamgrid.losses, and the per-sample reference losses of
conftest that the batch code of predictor is held to."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamgrid import losses as lo
from beamgrid import predictor as pr
from conftest import FLOOR_DB, cep_loss, cep_target_reference, ce_loss, ce_loss_sep, \
    floored_db_reference, gr_loss, grad_check, ir_loss, softmax, ws_loss, ws_loss_sep

DIMS8 = (2, 2, 2)
D8 = lo.beam_distance_matrix(DIMS8)


def one_target(kind, tensor, sep=False, floor_db=FLOOR_DB):
    """pr.targets of a kind model of the tensor's dims, a 1-D tensor's being
    (len, 1, 1), for that one tensor: its row, or for sep its three heads."""
    t = np.asarray(tensor, dtype=np.float64)
    dims = t.shape if t.ndim == 3 else (t.size, 1, 1)
    model = pr.SoftmaxModel.create(1, dims, pr.LossConfig(kind, sep, floor_db))
    row = pr.targets(model, t[None])[0]
    return tuple(np.split(row, np.cumsum(dims)[:2])) if sep else row


class TestCrossEntropy:
    def test_saturated_logits(self):
        z = np.zeros(128)
        z[7] = 20.0
        loss, _ = ce_loss(z, 7)
        assert loss < 1e-3

    def test_uniform_logits_128(self):
        loss, _ = ce_loss(np.zeros(128), 13)
        assert loss == pytest.approx(math.log(128), rel=1e-12)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(0)
        _, grad = ce_loss(rng.normal(0, 1, 32), 5)
        assert abs(grad.sum()) < 1e-12

    def test_sep_sums_heads(self):
        rng = np.random.default_rng(1)
        heads = tuple(rng.normal(0, 1, n) for n in (8, 4, 4))
        loss, grads = ce_loss_sep(heads, (3, 1, 2))
        expect = sum(ce_loss(z, t)[0] for z, t in zip(heads, (3, 1, 2)))
        assert loss == pytest.approx(expect, rel=1e-12)
        assert len(grads) == 3

    def test_sep_joint_consistency(self):
        # a product distribution's joint cross entropy is the sum of the
        # per-head cross entropies when the joint logits are broadcast sums
        rng = np.random.default_rng(2)
        za, ze, zr = (rng.normal(0, 1, n) for n in (8, 4, 4))
        joint = (za[:, None, None] + ze[None, :, None]
                 + zr[None, None, :]).ravel()
        target = (3, 1, 2)
        flat = (target[0] * 4 + target[1]) * 4 + target[2]
        joint_loss, _ = ce_loss(joint, flat)
        sep_loss, _ = ce_loss_sep((za, ze, zr), target)
        assert joint_loss == pytest.approx(sep_loss, abs=1e-9)


class TestCepTarget:
    def test_peak_dominates(self):
        t = np.zeros((2, 2, 2))
        t[1, 0, 1] = 4.0
        s = one_target("CEP", t)
        flat = (1 * 2 + 0) * 2 + 1
        assert s.argmax() == flat
        assert s[flat] > s.max(where=np.arange(8) != flat, initial=0)

    def test_constant_tensor_uniform(self):
        s = one_target("CEP", np.full((2, 2, 2), 0.3))
        np.testing.assert_allclose(s, 1 / 8, atol=1e-12)

    def test_two_entry_example(self):
        s = one_target("CEP", np.array([1.0, 0.1]), floor_db=-30.0)
        np.testing.assert_allclose(s, [0.6, 0.4], atol=1e-12)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            one_target("CEP", np.zeros(8))

    def test_sep_marginals(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.01, 1.0, (8, 4, 4))
        pa, pe, pr = one_target("CEP", t, sep=True)
        joint = one_target("CEP", t).reshape(8, 4, 4)
        np.testing.assert_allclose(pa, joint.sum(axis=(1, 2)), atol=1e-12)
        for v in (pa, pe, pr):
            assert v.sum() == pytest.approx(1.0, abs=1e-9)


class TestCepLoss:
    def test_matching_soft_target(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, 16)
        s = softmax(z)
        loss, grad = cep_loss(z, s)
        entropy = -float(np.sum(s * np.log(s)))
        assert loss == pytest.approx(entropy, rel=1e-12)
        assert np.abs(grad).max() < 1e-15

    def test_one_hot_reduces_to_ce(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 1, 16)
        s = np.zeros(16)
        s[9] = 1.0
        assert cep_loss(z, s)[0] == pytest.approx(ce_loss(z, 9)[0], rel=1e-12)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(6)
        s = one_target("CEP", rng.uniform(0.01, 1, 16))
        z = rng.normal(0, 1, 16)
        dev = grad_check(lambda zz: cep_loss(zz, s), z)
        assert dev < 1e-5

    def test_zero_gradient_point_absolute(self):
        # both analytic and numeric gradients vanish; compare absolutely
        rng = np.random.default_rng(7)
        z = rng.normal(0, 1, 8)
        s = softmax(z)
        _, grad = cep_loss(z, s)
        step = 1e-5
        for i in range(8):
            hi, ls = z.copy(), z.copy()
            hi[i] += step
            ls[i] -= step
            numeric = (cep_loss(hi, s)[0] - cep_loss(ls, s)[0]) / (2 * step)
            assert abs(grad[i] - numeric) < 1e-6


class TestBeamDistanceMatrix:
    def test_metric_axioms(self):
        d = lo.beam_distance_matrix((3, 2, 2))
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_neighbor_distance(self):
        d = lo.beam_distance_matrix((2, 2, 2))
        assert d[0, 1] == 1.0  # (0,0,0) vs (0,0,1)
        assert d[0, 7] == pytest.approx(math.sqrt(3))


class TestWsLoss:
    def test_one_hot_at_target(self):
        z = np.zeros(8)
        z[3] = 40.0
        loss, _ = ws_loss(z, 3, D8)
        assert loss < 1e-3

    def test_unit_distance_transport(self):
        # all mass on a beam one index step away from the target
        z = np.zeros(8)
        z[1] = 40.0
        loss, _ = ws_loss(z, 0, D8)
        assert loss == pytest.approx(1.0, abs=1e-3)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(13)
        z = rng.normal(0, 1, 8)
        dev = grad_check(lambda zz: ws_loss(zz, 4, D8), z)
        assert dev < 1e-4

    def test_sep_sums_three_transports(self):
        rng = np.random.default_rng(14)
        heads = tuple(rng.normal(0, 1, n) for n in (4, 3, 2))
        loss, grads = ws_loss_sep(heads, (2, 0, 1))
        total = 0.0
        for z, t in zip(heads, (2, 0, 1)):
            n = z.size
            d1 = np.abs(np.subtract.outer(np.arange(n, dtype=float),
                                          np.arange(n, dtype=float)))
            total += ws_loss(z, t, d1)[0]
        assert loss == pytest.approx(total, rel=1e-9)
        assert all(g.shape == z.shape for g, z in zip(grads, heads))


class TestIrLoss:
    def test_exact_prediction(self):
        loss, grad = ir_loss(np.array([2.0, 1.0, 3.0]), np.array([2, 1, 3]))
        assert loss == 0.0 and not grad.any()

    def test_unit_offset(self):
        loss, grad = ir_loss(np.array([3.0, 1.0, 3.0]), np.array([2, 1, 3]))
        assert loss == pytest.approx(1 / 3)
        np.testing.assert_allclose(grad, [2 / 3, 0, 0])

    def test_joint_form_rejected(self):
        with pytest.raises(ValueError, match="sep"):
            ir_loss(np.zeros(128), np.zeros(128))

    def test_nearest_lattice_ranking(self):
        order = pr.flat_ranking(np.array([[2.4, 1.0, 3.0]]), (8, 4, 4), "ir")[0]
        assert order[0] == (2 * 4 + 1) * 4 + 3

    def test_ranking_ties_by_flat_index(self):
        order = pr.flat_ranking(np.array([[0.5, 0.0, 0.0]]), (2, 1, 1), "ir")[0]
        assert list(order) == [0, 1]


class TestGrLoss:
    def test_exact_prediction(self):
        rng = np.random.default_rng(15)
        t = rng.uniform(0.01, 1, (2, 2, 2))
        target = one_target("GR", t).reshape(t.shape)
        loss, grad = gr_loss(target, t)
        assert loss == 0.0 and not grad.any()

    def test_constant_offset(self):
        rng = np.random.default_rng(16)
        t = rng.uniform(0.01, 1, (2, 2, 2))
        c = 2.5
        loss, _ = gr_loss(one_target("GR", t).reshape(t.shape) + c, t)
        assert loss == pytest.approx(c * c, rel=1e-12)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.01, 1, 8)
        pred = rng.normal(-10, 5, 8)
        dev = grad_check(lambda pp: gr_loss(pp, t), pred)
        assert dev < 1e-7

    def test_flooring_matches_cep(self):
        t = np.array([1.0, 1e-9, 0.0])
        db = one_target("GR", t, floor_db=-30.0)
        np.testing.assert_allclose(db, [0.0, -30.0, -30.0])

    @given(st.integers(1, 32), st.integers(1, 64), st.sampled_from([0.0, 0.5, 0.9]),
           st.sampled_from([-30.0, -7.5, -1e-3]), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_stacked_targets_match_out_of_place_formula(self, n, beams, zeros, floor, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 1.0, (n, beams)) * 10.0 ** rng.integers(-12, 3, (n, 1))
        t[rng.uniform(size=t.shape) < zeros] = 0.0
        t[np.arange(n), rng.integers(0, beams, n)] += 1e-12  # a positive peak
        stack = t.reshape(n, beams, 1, 1)
        gr, cep = (pr.SoftmaxModel.create(1, (beams, 1, 1), pr.LossConfig(kind, floor_db=floor))
                   for kind in ("GR", "CEP"))
        assert pr.targets(gr, stack).tobytes() == floored_db_reference(t, floor).tobytes()
        assert pr.targets(cep, stack).tobytes() == cep_target_reference(t, floor).tobytes()

    def test_sep_targets(self):
        rng = np.random.default_rng(18)
        t = rng.uniform(0.01, 1, (8, 4, 4))
        ga, ge, gr = one_target("GR", t, sep=True)
        np.testing.assert_allclose(ga, one_target("GR", t.sum(axis=(1, 2))))
        assert ge.shape == (4,) and gr.shape == (4,)


class TestGradCheckSuite:
    def test_all_losses_nonnegative_and_zero_at_optimum(self):
        rng = np.random.default_rng(19)
        z = rng.normal(0, 1, 8)
        assert ce_loss(z, 3)[0] >= 0
        assert cep_loss(z, softmax(rng.normal(0, 1, 8)))[0] >= 0
        assert ws_loss(z, 3, D8)[0] >= 0
        assert ir_loss(rng.normal(0, 1, 3), np.zeros(3))[0] >= 0
        t = rng.uniform(0.01, 1, 8)
        assert gr_loss(rng.normal(0, 1, 8), t)[0] >= 0
        sat = np.zeros(8)
        sat[2] = 20.0
        assert ce_loss(sat, 2)[0] < 1e-3
        assert ws_loss(sat, 2, D8)[0] < 1e-3

    def test_ce_shift_invariance(self):
        rng = np.random.default_rng(20)
        z = rng.normal(0, 1, 16)
        a = ce_loss(z, 7)[0]
        b = ce_loss(z + 5.0, 7)[0]
        assert abs(a - b) < 1e-12

    def test_gradients_pass_checker(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            z = rng.normal(0, 1, 16)
            assert grad_check(lambda zz: ce_loss(zz, 4), z) < 1e-4
            s = one_target("CEP", rng.uniform(0.01, 1, 16))
            assert grad_check(lambda zz: cep_loss(zz, s), z) < 1e-4

    def test_ce_checker_tight_tolerance(self):
        rng = np.random.default_rng(22)
        z = rng.normal(0, 1, 32)
        assert grad_check(lambda zz: ce_loss(zz, 9), z, step=1e-5) < 1e-5
