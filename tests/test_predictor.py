import concurrent.futures
import functools
import math
import sys
import threading
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamgrid import channel as ch
from beamgrid import losses as lo
from beamgrid import metrics as mt
from beamgrid import predictor as pr
from beamgrid import scene as sc
from beamgrid.errors import EmptyTrainingSetError, NumericError

from conftest import FLOOR_DB, batch_loss_grad_reference, batch_loss_reference, block_grid, \
    ce_loss, ce_loss_sep, cep_loss, cep_loss_sep, flat_ranking_reference, floored_db_reference, \
    gr_loss, ir_loss, ir_ranking, oracle_reference, pixel_exclusion, predict_reference, \
    softmax, targets_reference, tensor_grid, train_reference, validity_masks, ws_loss, ws_loss_sep


def _lse(a, axis):
    """Log-sum-exp along axis, for the sep ranking check."""
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis) + np.log(np.exp(a - m).sum(axis=axis))


def loss_of_scores(model, z, targets):
    """_epoch_loss of the score matrix z itself: with identity weights and a
    zero bias the scores are z, bit for bit, for finite z."""
    c = z.shape[1]
    return pr._epoch_loss(model, z, np.eye(c), np.zeros(c), targets)


def train_on_tensors(model, x, tensors, hyper, x_val, tensors_val):
    """pr.train on the targets of the given beam power tensors."""
    return pr.train(model, x, pr.targets(model, tensors), hyper,
                    x_val, pr.targets(model, tensors_val))


ALL_LOSSES = [("CE", False), ("CE", True), ("CEP", False), ("CEP", True),
              ("WS", False), ("WS", True), ("IR", True), ("GR", False), ("GR", True)]


@pytest.fixture()
def small_scene():
    hm = sc.generate_city(32, 32, seed=42)
    tx = sc.place_tx(hm, seed=42)
    return hm, tx


class TestBuildFeatures:
    def test_tx_pixel_values(self, small_scene):
        hm, tx = small_scene
        feats = pr.build_features(hm, tx)
        r, c = tx.pixel
        assert feats.shape == (32, 32, len(pr.FEATURE_NAMES))
        names = dict(zip(pr.FEATURE_NAMES, feats[r, c]))
        assert names["tx_onehot"] == 1.0
        assert names["tx_distance"] == 0.0

    def test_due_east_bearing(self):
        hm = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite((8, 4), 10.0, ch.ArrayFrame(0.0, 0.0))
        feats = pr.build_features(hm, tx)
        sin_b = feats[8, 10, pr.FEATURE_NAMES.index("tx_bearing_sin")]
        cos_b = feats[8, 10, pr.FEATURE_NAMES.index("tx_bearing_cos")]
        assert sin_b == pytest.approx(0.0, abs=1e-12)
        assert cos_b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pixel", [(-1, 5), (16, 5), (5, -1), (5, 16)])
    def test_tx_off_grid_rejected(self, pixel):
        # -1 would wrap onto the last row or column, 16 raise IndexError
        hm = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite(pixel, 10.0, ch.ArrayFrame(0.0, 0.0))
        with pytest.raises(ValueError, match=rf"tx pixel \[{pixel[0]}, {pixel[1]}\] "
                                             r"is off the 16x16 grid"):
            pr.build_features(hm, tx)

    def test_mast_above_every_building_bounded(self):
        # relative height scales by the tx height when the mast is the
        # tallest thing in the scene
        building = np.zeros((16, 16))
        building[2:6, 2:6] = 10.0
        hm = sc.HeightMap(building, np.zeros((16, 16)))
        tx = sc.TxSite((8, 8), 40.0, ch.ArrayFrame(0.0, 0.0))
        feats = pr.build_features(hm, tx)
        assert np.abs(feats).max() <= 1.0
        rel = feats[..., pr.FEATURE_NAMES.index("relative_height")]
        assert rel[8, 8] == 1.0 and rel[3, 3] == 0.75

    def test_deterministic_and_bounded(self, small_scene):
        hm, tx = small_scene
        a = pr.build_features(hm, tx)
        b = pr.build_features(hm, tx)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 1.0 + 1e-12


class TestOraclePredictor:
    def test_perfect_self_accuracy(self, codebook, small_scene):
        hm, tx = small_scene
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        tensors = tensor_grid(chans, codebook, tx.frame)
        valid = ~pixel_exclusion(tensors, mt.LinkBudget())
        scores = pr.oracle_predictor(tensors[valid].reshape(-1, 128))
        assert scores.shape == (int(valid.sum()), 128)
        rankings = pr.flat_ranking(scores, (8, 4, 4), "joint")
        report, _ = mt.evaluate_ranking(tensors[valid], rankings, [1], mt.LinkBudget())
        assert report.accuracy == [1.0] and report.tpr == [1.0]

    def test_zero_entries_ranked_last(self):
        t = np.zeros((1, 8))
        t[0, 0] = 1.0
        t[0, 7] = 0.5
        order = pr.flat_ranking(pr.oracle_predictor(t), (2, 2, 2), "joint")[0]
        assert list(order[:2]) == [0, 7]

    def test_matches_per_pixel_sort(self, codebook):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, (9, 128))
        order = pr.flat_ranking(pr.oracle_predictor(t), (8, 4, 4), "joint")
        for i in range(9):
            expect = np.argsort(-t[i], kind="stable")
            assert np.array_equal(order[i], expect)


class TestGeometricPredictor:
    def test_obstacle_free_matches_ground_truth(self, codebook):
        hm = sc.HeightMap(np.zeros((24, 24)), np.zeros((24, 24)))
        tx = sc.TxSite((12, 12), 18.0, ch.ArrayFrame(0.8, math.pi / 4))
        cfg = sc.SceneConfig(vegetation_db_per_m=0.0)
        chans = sc.trace_paths(hm, tx, cfg)
        tensors = tensor_grid(chans, codebook, tx.frame)
        logits = pr.geometric_predictor(hm, tx, codebook, cfg.rx_height_m)
        assert logits.shape == (24, 24, 128)
        valid = tensors.reshape(24, 24, -1).any(axis=-1)
        order = pr.flat_ranking(logits[valid], (8, 4, 4), "joint")
        truths = np.argmax(tensors[valid].reshape(len(order), -1), axis=1)
        assert len(order) > 500
        assert np.mean(order[:, 0] == truths) >= 0.9

    def test_blocked_pixels_still_predicted(self, codebook):
        building = np.zeros((16, 16))
        building[6:11, 8] = 50.0
        hm = sc.HeightMap(building, np.zeros((16, 16)))
        tx = sc.TxSite((8, 2), 12.0, ch.ArrayFrame(0.0, math.pi / 4))
        logits = pr.geometric_predictor(hm, tx, codebook, 1.5)
        assert np.isfinite(logits[8, 12]).all()

    def test_invariant_to_building_heights(self, codebook):
        rng = np.random.default_rng(2)
        flat = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tall = sc.HeightMap(rng.uniform(0, 30, (16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite((8, 8), 20.0, ch.ArrayFrame(0.3, math.pi / 4))
        a = pr.geometric_predictor(flat, tx, codebook, 1.5)
        b = pr.geometric_predictor(tall, tx, codebook, 1.5)
        assert np.array_equal(a, b)


class TestPredict:
    def test_zero_weights_uniform(self):
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        x = np.random.default_rng(3).uniform(-1, 1, (16, 5))
        scores = pr.predict(model, x)
        assert scores.shape == (16, 8)
        p = softmax(scores[10])
        np.testing.assert_allclose(p, 1 / 8, atol=1e-12)

    def test_matches_manual_matrix_product(self):
        rng = np.random.default_rng(4)
        model = pr.SoftmaxModel.create(6, (2, 2, 2))
        model.weights = rng.normal(0, 1, (6, 8))
        model.bias = rng.normal(0, 1, 8)
        x = rng.uniform(-1, 1, (25, 6))
        scores = pr.predict(model, x)
        for i in (0, 13, 24):
            np.testing.assert_allclose(scores[i], model.weights.T @ x[i] + model.bias,
                                       rtol=1e-12)

    def test_pixelwise_independence(self):
        rng = np.random.default_rng(5)
        model = pr.SoftmaxModel.create(4, (2, 2, 2))
        model.weights = rng.normal(0, 1, (4, 8))
        x = rng.uniform(-1, 1, (12, 4))
        scores_a = pr.predict(model, x)
        scores_b = pr.predict(model, x[::-1].copy())
        assert np.array_equal(scores_a[::-1], scores_b)

    def test_dim_mismatch_rejected(self):
        model = pr.SoftmaxModel.create(9, (2, 2, 2))
        with pytest.raises(ValueError):
            pr.predict(model, np.zeros((4, 5)))


class TestCandidates:
    """The candidate beams of a pixel are the head of its ranking."""

    def test_oracle_top1_is_optimal(self, codebook):
        rng = np.random.default_rng(6)
        t = rng.uniform(0, 1, (4, 128))
        order = pr.flat_ranking(pr.oracle_predictor(t), (8, 4, 4), "joint")
        for i in range(4):
            assert order[i, 0] == int(np.argmax(t[i]))

    def test_full_candidate_set_in_rank_order(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 1, (1, 8))
        order = pr.flat_ranking(pr.oracle_predictor(t), (2, 2, 2), "joint")
        assert sorted(order[0]) == list(range(8))

    def test_sep_matches_bruteforce_product(self):
        rng = np.random.default_rng(8)
        na, ne, nr = 8, 4, 4
        scores = rng.normal(0, 1, (4, na + ne + nr))
        order = pr.flat_ranking(scores, (na, ne, nr), "sep")
        for i in range(4):
            za = scores[i, :na]
            ze = scores[i, na:na + ne]
            zr = scores[i, na + ne:]
            la, le, lr = (z - _lse(z, axis=0) for z in (za, ze, zr))
            joint = np.add.outer(np.add.outer(la, le), lr).ravel()
            expect = np.argsort(-joint, kind="stable")
            assert np.array_equal(order[i], expect)


class TestBatchLossConsistency:
    """The vectorised batch losses must match the per-sample references."""

    def _setup(self, kind, sep, seed=0):
        rng = np.random.default_rng(seed)
        dims = (4, 3, 2)
        b = 24
        n = 6
        model = pr.SoftmaxModel.create(5, dims, pr.LossConfig(kind, sep))
        c = model.weights.shape[1]
        z = rng.normal(0, 1, (n, c))
        tensors = rng.uniform(0.01, 1.0, (n, *dims))
        targets = pr.targets(model, tensors)
        return model, z, tensors, targets, dims

    @staticmethod
    def _loss_grad(model, z, targets):
        return loss_of_scores(model, z, targets), pr._batch_grad(model, z.copy(), targets)

    def test_ce_joint(self):
        model, z, _, targets, _ = self._setup("CE", False)
        loss, grad = self._loss_grad(model, z, targets)
        per = [ce_loss(z[i], targets[i]) for i in range(len(z))]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        np.testing.assert_allclose(grad, np.stack([p[1] for p in per]) / len(z),
                                   rtol=1e-10)

    def test_ce_sep(self):
        model, z, _, targets, dims = self._setup("CE", True)
        loss, grad = self._loss_grad(model, z, targets)
        na, ne, nr = dims
        expect = 0.0
        for i in range(len(z)):
            heads = (z[i, :na], z[i, na:na + ne], z[i, na + ne:])
            expect += ce_loss_sep(heads, tuple(targets[i]))[0]
        assert loss == pytest.approx(expect / len(z), rel=1e-12)

    def test_cep_joint(self):
        model, z, tensors, targets, _ = self._setup("CEP", False)
        loss, grad = self._loss_grad(model, z, targets)
        per = [cep_loss(z[i], targets[i]) for i in range(len(z))]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        np.testing.assert_allclose(grad, np.stack([p[1] for p in per]) / len(z),
                                   rtol=1e-10, atol=1e-15)

    def test_ws_joint(self):
        model, z, _, targets, dims = self._setup("WS", False)
        dmat = lo.beam_distance_matrix(dims)
        loss, grad = self._loss_grad(model, z, targets)
        per = [ws_loss(z[i], int(targets[i]), dmat) for i in range(len(z))]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        np.testing.assert_allclose(grad, np.stack([p[1] for p in per]) / len(z),
                                   rtol=1e-9, atol=1e-15)

    def test_cep_sep(self):
        model, z, tensors, targets, dims = self._setup("CEP", True)
        loss, grad = self._loss_grad(model, z, targets)
        na, ne, nr = dims
        expect = 0.0
        for i in range(len(z)):
            heads = (z[i, :na], z[i, na:na + ne], z[i, na + ne:])
            soft = (targets[i, :na], targets[i, na:na + ne], targets[i, na + ne:])
            expect += cep_loss_sep(heads, soft)[0]
        assert loss == pytest.approx(expect / len(z), rel=1e-12)

    def test_ws_sep(self):
        model, z, _, targets, dims = self._setup("WS", True)
        loss, grad = self._loss_grad(model, z, targets)
        na, ne, nr = dims
        expect = 0.0
        grads = []
        for i in range(len(z)):
            heads = (z[i, :na], z[i, na:na + ne], z[i, na + ne:])
            li, gi = ws_loss_sep(heads, tuple(targets[i]))
            expect += li
            grads.append(np.concatenate(gi))
        assert loss == pytest.approx(expect / len(z), rel=1e-9)
        np.testing.assert_allclose(grad, np.stack(grads) / len(z),
                                   rtol=1e-9, atol=1e-15)

    def test_gr_sep(self):
        model, z, tensors, targets, dims = self._setup("GR", True)
        loss, grad = self._loss_grad(model, z, targets)
        diffs = z - targets
        expect = (diffs**2).mean(axis=1).mean()
        assert loss == pytest.approx(expect, rel=1e-12)
        # targets are the floored-dB marginals
        ga, ge, gr_t = (floored_db_reference(tensors[0].sum(axis=axes)[None], FLOOR_DB)[0]
                        for axes in ((1, 2), (0, 2), (0, 1)))
        np.testing.assert_allclose(targets[0], np.concatenate([ga, ge, gr_t]))

    def test_ir(self):
        model, z, _, targets, _ = self._setup("IR", True)
        loss, grad = self._loss_grad(model, z, targets)
        per = [ir_loss(z[i], targets[i]) for i in range(len(z))]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        np.testing.assert_allclose(grad, np.stack([p[1] for p in per]) / len(z),
                                   rtol=1e-12)

    def test_gr_joint(self):
        model, z, tensors, targets, dims = self._setup("GR", False)
        loss, grad = self._loss_grad(model, z, targets)
        per = [gr_loss(z[i].reshape(dims), tensors[i]) for i in range(len(z))]
        assert loss == pytest.approx(np.mean([p[0] for p in per]), rel=1e-12)
        np.testing.assert_allclose(
            grad, np.stack([p[1].ravel() for p in per]) / len(z), rtol=1e-12)


@st.composite
def loss_batches(draw):
    """1-8 beams per axis, 1-64 samples, scores of scale up to 30, and beam
    tensors with zero entries but a positive peak in every sample."""
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    n = draw(st.integers(1, 64))
    scale = draw(st.floats(0.0, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = dims[0] * dims[1] * dims[2]
    tensors = rng.uniform(0.0, 1.0, (n, b))
    tensors[rng.uniform(size=(n, b)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    tensors[np.arange(n), rng.integers(0, b, n)] = rng.uniform(0.5, 2.0, n)
    return dims, tensors.reshape(n, *dims), rng.normal(0.0, 1.0, (n, b + 3)) * scale


class TestLossMatchesReference:
    """targets, _epoch_loss and _batch_grad reproduce the loss code they
    replaced (conftest): the same bytes, and the same loss value and type.

    CE-sep moved from -log(p + 1e-300) to log-softmax, the formula of joint
    CE. Both round the softmax or its normaliser at the scale of 1, so the
    loss of one sample, scored alone, may differ by 4 ulp of max(|ref|, 1).
    A batch loss of n samples is, per head, the mean of the per-sample
    terms, which each side sums by NumPy's pairwise summation. The two sums
    group the same n terms alike, but each level of the pairing rounds the
    partial sums of each side on its own, so the bound on a batch adds to
    the per-sample bound one rounding per level of each of the two sums:
    (4 + 2 * ceil(log2 n)) ulp of max(|ref|, 1). Over 15,000 random draws
    the worst sample was 3 ulp off and the worst batch 8 ulp, at 9-16
    samples, where the bound is 12."""

    @staticmethod
    def _ce_sep_ulps(loss, ref_loss):
        return abs(float(loss) - float(ref_loss)) / np.spacing(max(abs(ref_loss), 1.0))

    @given(loss_batches())
    @example(((1, 1, 7), np.eye(7)[np.arange(12) % 7].reshape(12, 1, 1, 7),
              np.zeros((12, 10))))
    @settings(deadline=None, max_examples=100)
    def test_all_kinds(self, case):
        dims, tensors, scores = case
        for kind, sep in ALL_LOSSES:
            model = pr.SoftmaxModel.create(5, dims, pr.LossConfig(kind, sep))
            z = scores[:, :model.weights.shape[1]]
            targets = pr.targets(model, tensors)
            ref_targets = targets_reference(model, tensors)
            assert targets.dtype == ref_targets.dtype
            assert targets.shape == ref_targets.shape
            assert targets.tobytes() == ref_targets.tobytes()
            dmat = lo.beam_distance_matrix(dims) if (kind, sep) == ("WS", False) else None
            ref_loss, ref_grad = batch_loss_grad_reference(model, z, targets, dmat)
            block = z.copy()
            grad = pr._batch_grad(model, block, targets)
            assert grad is block and grad.tobytes() == ref_grad.tobytes()
            loss = loss_of_scores(model, z, targets)
            assert type(loss) is type(ref_loss)
            if (kind, sep) == ("CE", True):
                n = len(z)
                assert self._ce_sep_ulps(loss, ref_loss) <= 4 + 2 * math.ceil(math.log2(n))
                for i in range(n):
                    one = slice(i, i + 1)
                    ref_one, _ = batch_loss_grad_reference(model, z[one], targets[one])
                    loss_one = loss_of_scores(model, z[one], targets[one])
                    assert self._ce_sep_ulps(loss_one, ref_one) <= 4
            else:
                assert float(loss).hex() == float(ref_loss).hex()


class TestTargetsPerPart:
    """targets builds each row from its own sample, so train may take the
    targets built scene by scene: no samples give an empty block, and the
    targets of a concatenation are the concatenation of the parts'."""

    @pytest.mark.parametrize("kind,sep", ALL_LOSSES)
    def test_no_samples_give_an_empty_block(self, kind, sep):
        dims = (8, 4, 4)
        model = pr.SoftmaxModel.create(9, dims, pr.LossConfig(kind, sep))
        one = pr.targets(model, np.ones((1, 128)))
        for shape in ((0, 128), (0, *dims)):
            empty = pr.targets(model, np.zeros(shape))
            assert empty.shape == (0, *one.shape[1:])
            assert empty.dtype == one.dtype

    @given(loss_batches(), st.lists(st.integers(1, 64), max_size=4))
    @settings(deadline=None, max_examples=100)
    def test_concatenation_of_parts(self, case, cuts):
        dims, tensors, _ = case
        n = len(tensors)
        # an empty first part and a one-row second part, then the cuts;
        # repeated cuts give more empty parts
        edges = [0, 0, 1, *sorted(min(c, n) for c in cuts), n]
        parts = [tensors[a:b] for a, b in zip(edges, edges[1:])]
        for kind, sep in ALL_LOSSES:
            model = pr.SoftmaxModel.create(5, dims, pr.LossConfig(kind, sep))
            whole = pr.targets(model, tensors)
            joined = np.concatenate([pr.targets(model, part) for part in parts])
            assert joined.dtype == whole.dtype
            assert joined.shape == whole.shape
            assert joined.tobytes() == whole.tobytes()


class TestEpochLoss:
    """_epoch_loss scores x @ w + b in row blocks and must give the value and
    type of the batch loss code it replaced (conftest) on the whole score
    matrix, bit for bit, whatever the block size."""

    @staticmethod
    def _check(model, x, w, b, targets):
        ref = batch_loss_reference(model, x @ w + b, targets)
        loss = pr._epoch_loss(model, x, w, b, targets)
        assert type(loss) is type(ref)
        assert float(loss).hex() == float(ref).hex()

    @given(loss_batches(), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 7, pr.LOSS_BLOCK_VALUES]))
    @settings(deadline=None, max_examples=100)
    def test_matches_one_block(self, case, features, seed, block_values):
        dims, tensors, scores = case
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (len(tensors), features))
        scale = np.abs(scores).max(initial=1.0)
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", block_values):
            for kind, sep in ALL_LOSSES:
                model = pr.SoftmaxModel.create(features, dims, pr.LossConfig(kind, sep))
                c = model.weights.shape[1]
                w = rng.normal(0.0, scale / features, (features, c))
                b = rng.normal(0.0, 1.0, c)
                self._check(model, x, w, b, pr.targets(model, tensors))

    # BLAS rounds a one-row product, and the rows of a one-column product by
    # their position in it, differently from the same rows of a larger
    # product. A difference of one ulp in a score often rounds away in the
    # loss, so each case below takes 20 draws.

    @pytest.mark.parametrize("n", [3, 9])
    def test_last_single_row(self, n):
        rng = np.random.default_rng(n)
        model = pr.SoftmaxModel.create(9, (8, 4, 4))
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", 1):  # blocks of two rows
            for _ in range(20):
                x = rng.normal(0.0, 1.0, (n, 9))
                w, b = rng.normal(0.0, 3.0, (9, 128)), rng.normal(0.0, 1.0, 128)
                targets = rng.integers(0, 128, n)
                self._check(model, x, w, b, targets)

    @pytest.mark.parametrize("n", [2, 7, 9])
    def test_one_column_model(self, n):
        rng = np.random.default_rng(n)
        model = pr.SoftmaxModel.create(9, (1, 1, 1), pr.LossConfig("GR"))
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", 1):
            for _ in range(20):
                x = rng.normal(0.0, 1.0, (n, 9))
                w, b = rng.normal(0.0, 1.0, (9, 1)), rng.normal(0.0, 1.0, 1)
                targets = rng.normal(0.0, 1.0, (n, 1))
                self._check(model, x, w, b, targets)

    def test_sets_its_own_errstate(self):
        # train scores the train loss on a worker thread, which starts with
        # NumPy's default error state: scores that overflow there must give
        # a NaN loss, not a warning turned into an error
        model = pr.SoftmaxModel.create(2, (2, 2, 2))
        x, w, b = np.full((4, 2), 1e300), np.full((2, 8), 1e300), np.zeros(8)
        outcome = []

        def score():
            try:
                outcome.append(pr._epoch_loss(model, x, w, b, np.arange(4)))
            except Exception as exc:
                outcome.append(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thread = threading.Thread(target=score)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(outcome) == 1 and type(outcome[0]) is float, outcome
        assert math.isnan(outcome[0])


@st.composite
def training_runs(draw):
    """One loss configuration, 1-4 beams per axis, 1-48 training samples of
    1-10 features, a validation set of 1-16 samples, a rate of up to 3, and
    a patience of 1-3 epochs, so that the rate decays and, with
    MIN_LR_FACTOR patched to 0.2, training can stop early."""
    kind, sep = draw(st.sampled_from(ALL_LOSSES))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    features = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_val = draw(st.integers(1, 48)), draw(st.sampled_from([1, 5, 16]))

    def samples(count):
        tensors = rng.uniform(0.0, 1.0, (count, *dims))
        tensors.reshape(count, -1)[:, 0] += 0.5  # a positive peak in every sample
        return rng.normal(0.0, 1.0, (count, features)), tensors

    hyper = pr.TrainConfig(lr=draw(st.sampled_from([0.05, 0.5, 3.0])),
                           epochs=draw(st.integers(1, 12)), batch=draw(st.integers(1, 16)),
                           patience=draw(st.integers(1, 3)))
    model = pr.SoftmaxModel.create(features, dims, pr.LossConfig(kind, sep),
                                   seed=draw(st.integers(0, 3)))
    return model, samples(n), samples(n_val), hyper


class TestTrainMatchesReference:
    """train, with its blocked epoch losses and its worker thread, writes the
    weights, biases and history of the loop it replaced (conftest)."""

    @given(training_runs(), st.sampled_from([1, 7, pr.LOSS_BLOCK_VALUES]), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_same_bytes(self, run, block_values, late):
        model, (x, t), (xv, tv), hyper = run
        # a rate of 3 can make squared-error training overflow: both must
        # then give the same infinities and NaNs
        with mock.patch.object(pr, "MIN_LR_FACTOR", 0.2), \
                np.errstate(over="ignore", invalid="ignore"):
            ref, ref_history = train_reference(model, x, t, hyper, xv, tv)
            # late: every train loss is computed only when train reads it,
            # an epoch later or after the loop, so a worker that read the
            # live weights would see a later epoch's
            pool = self._LateExecutor if late else concurrent.futures.ThreadPoolExecutor
            with mock.patch.object(pr, "LOSS_BLOCK_VALUES", block_values), \
                    mock.patch.object(concurrent.futures, "ThreadPoolExecutor", pool):
                trained, history = train_on_tensors(model, x, t, hyper, xv, tv)
        assert trained.weights.tobytes() == ref.weights.tobytes()
        assert trained.bias.tobytes() == ref.bias.tobytes()
        assert repr(history) == repr(ref_history)

    def test_worker_follows_callers_errstate(self):
        # validated on its training rows, both the worker and the caller
        # square the diverging scores, and both must overflow quietly
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, (48, 10))
        t = rng.uniform(0.0, 1.0, (48, 1, 1, 2))
        t[:, 0, 0, 0] += 0.5
        model = pr.SoftmaxModel.create(10, (1, 1, 2), pr.LossConfig("GR"))
        hyper = pr.TrainConfig(lr=3.0, epochs=12, batch=1, patience=3)
        with mock.patch.object(pr, "MIN_LR_FACTOR", 0.2), \
                np.errstate(over="ignore", invalid="ignore"):
            ref, ref_history = train_reference(model, x, t, hyper, x, t)
            trained, history = train_on_tensors(model, x, t, hyper, x, t)
        assert not np.isfinite([row[1] for row in ref_history]).all()
        assert trained.weights.tobytes() == ref.weights.tobytes()
        assert repr(history) == repr(ref_history)

    def test_worker_error_raised_an_epoch_later(self):
        # the train loss of the first epoch fails in the worker; the loop
        # must raise it by the end of the second epoch, not after the last
        rng = np.random.default_rng(1)
        x, xv = rng.normal(0.0, 1.0, (48, 5)), rng.normal(0.0, 1.0, (16, 5))
        t, tv = rng.uniform(0.01, 1.0, (48, 2, 2, 2)), rng.uniform(0.01, 1.0, (16, 2, 2, 2))
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        val_epochs = []

        def epoch_loss(model, x, w, b, targets):
            if len(x) == len(xv):
                val_epochs.append(len(val_epochs))
                return 1.0
            raise FloatingPointError("overflow in the train loss")

        with mock.patch.object(pr, "_epoch_loss", epoch_loss), \
                pytest.raises(FloatingPointError, match="overflow in the train loss"):
            train_on_tensors(model, x, t, pr.TrainConfig(lr=0.3, epochs=10), xv, tv)
        assert val_epochs == [0, 1]

    def test_thread_switches_every_microsecond(self):
        rng = np.random.default_rng(11)
        x, xv = rng.normal(0.0, 1.0, (600, 9)), rng.normal(0.0, 1.0, (100, 9))
        t, tv = rng.uniform(0.01, 1.0, (600, 4, 2, 2)), rng.uniform(0.01, 1.0, (100, 4, 2, 2))
        model = pr.SoftmaxModel.create(9, (4, 2, 2), pr.LossConfig("WS"), seed=5)
        hyper = pr.TrainConfig(lr=0.5, epochs=20, batch=32)
        ref, ref_history = train_reference(model, x, t, hyper, xv, tv)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trained, history = train_on_tensors(model, x, t, hyper, xv, tv)
        finally:
            sys.setswitchinterval(interval)
        assert trained.weights.tobytes() == ref.weights.tobytes()
        assert repr(history) == repr(ref_history)

    class _LateExecutor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        @staticmethod
        def submit(fn, *args):
            return types.SimpleNamespace(result=functools.partial(fn, *args))


@st.composite
def score_grids(draw):
    """(scores, valid, dims, kind): a joint, sep or ir score grid of up to
    6x6 pixels, 1-4 beams per axis, scores rounded to halves so that ties
    occur, and a validity mask with no, one, some or every pixel valid."""
    kind = draw(st.sampled_from(["joint", "sep", "ir"]))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = {"joint": math.prod(dims), "sep": sum(dims), "ir": 3}[kind]
    scores = np.round(rng.normal(0.0, 2.0, (rows, cols, c)) * 2.0) / 2.0
    return scores, draw(validity_masks(rows, cols)), dims, kind


class TestRankingMatchesReference:
    """The predictors score and flat_ranking ranks the valid rows alone; they
    must give the rows of the whole-grid scores and ranking they replaced
    (conftest) at the valid pixels. The whole-grid ranking runs the
    ranking_from_scores and ir_ranking that flat_ranking absorbed."""

    @given(score_grids())
    # tied beams for each kind: equal joint scores, equal sums of head
    # scores, lattice points equally far from the triple; and no rows
    @example((np.array([[[0.5, 1.0, 0.5, 1.0]]]), np.ones((1, 1), bool), (2, 2, 1), "joint"))
    @example((np.array([[[0.0, 1.0, 1.0, 0.0, 0.5]]]), np.ones((1, 1), bool), (2, 2, 1), "sep"))
    @example((np.array([[[0.5, 0.5, 0.0]], [[1.5, 0.0, 0.5]]]), np.ones((2, 1), bool),
              (2, 2, 2), "ir"))
    @example((np.zeros((2, 2, 3)), np.zeros((2, 2), bool), (2, 2, 2), "ir"))
    @example((np.zeros((1, 2, 6)), np.zeros((1, 2), bool), (2, 2, 2), "sep"))
    @example((np.zeros((2, 1, 8)), np.zeros((2, 1), bool), (2, 2, 2), "joint"))
    @settings(deadline=None, max_examples=200)
    def test_same_bytes(self, case):
        scores, valid, dims, kind = case
        flat = pr.flat_ranking(scores[valid], dims, kind)
        ref = flat_ranking_reference(scores, valid, dims, kind)
        assert flat.dtype == ref.dtype and flat.shape == ref.shape
        assert flat.tobytes() == ref.tobytes()

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_oracle_same_bytes(self, data):
        dims = tuple(data.draw(st.integers(1, 4)) for _ in range(3))
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # f32 powers with zeros and ties, as evaluate reads them
        b = math.prod(dims)
        tensors = np.where(rng.uniform(size=(rows, cols, b)) < 0.3, 0.0,
                           np.round(rng.uniform(0, 4, (rows, cols, b))) * 1e-9)
        tensors = tensors.astype(np.float32).astype(np.float64)
        valid = data.draw(validity_masks(rows, cols))
        scores = pr.oracle_predictor(tensors[valid])
        ref_scores = oracle_reference(tensors)
        assert scores.tobytes() == ref_scores[valid].tobytes()
        assert (pr.flat_ranking(scores, dims, "joint").tobytes()
                == flat_ranking_reference(ref_scores, valid, dims, "joint").tobytes())

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_model_same_bytes(self, data):
        # predict scores every row, a lone one too, with the bits of a
        # product of two or more rows. The whole-grid code scored a one-pixel
        # grid in a one-row product, and the rows of a one-column model round
        # by their place in the product, so those bits may differ; a
        # one-column model ranks its one beam first whatever they are.
        kind, sep = data.draw(st.sampled_from(ALL_LOSSES))
        dims = tuple(data.draw(st.integers(1, 4)) for _ in range(3))
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        f = data.draw(st.integers(1, 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        model = pr.SoftmaxModel.create(f, dims, pr.LossConfig(kind, sep))
        model.weights = rng.normal(0, 1, model.weights.shape)
        model.bias = rng.normal(0, 1, model.bias.shape)
        features = rng.uniform(-1, 1, (rows, cols, f))
        valid = data.draw(validity_masks(rows, cols))
        scores = pr.predict(model, features[valid])
        ref_scores = predict_reference(model, features)
        assert scores.shape == ref_scores[valid].shape
        if rows * cols > 1 and scores.shape[1] > 1:
            assert scores.tobytes() == ref_scores[valid].tobytes()
        order = pr.flat_ranking(scores, dims, model.kind)
        ref = flat_ranking_reference(ref_scores, valid, dims, model.kind)
        assert order.tobytes() == ref.tobytes()


class TestIrRankingConsistency:
    def test_batch_matches_per_triple_reference(self):
        rng = np.random.default_rng(10)
        dims = (8, 4, 4)
        scores = rng.uniform(-1, 8, (4, 3))
        order = pr.flat_ranking(scores, dims, "ir")
        for i in range(4):
            expect = ir_ranking(tuple(scores[i]), dims)
            assert np.array_equal(order[i], expect)


class TestTrainAllLossKinds:
    @pytest.mark.parametrize("kind,sep", [
        ("CE", False), ("CE", True), ("CEP", False), ("CEP", True),
        ("WS", False), ("WS", True), ("IR", True), ("GR", False), ("GR", True),
    ])
    def test_short_training_run_improves_or_holds(self, kind, sep):
        rng = np.random.default_rng(hash(kind) % 2**32 + sep)
        n, dims = 60, (4, 3, 2)
        x = rng.uniform(-1, 1, (n, 6))
        tensors = rng.uniform(0.01, 1.0, (n, *dims))
        model = pr.SoftmaxModel.create(6, dims, pr.LossConfig(kind, sep), seed=1)
        hyper = pr.TrainConfig(lr=0.1, epochs=15, batch=16)
        trained, history = train_on_tensors(model, x, tensors, hyper, x, tensors)
        assert history[-1][1] <= history[0][1] + 1e-9
        order = pr.flat_ranking(pr.predict(trained, x), dims, trained.kind)
        b = dims[0] * dims[1] * dims[2]
        assert order.shape == (n, b)
        assert (np.sort(order, axis=-1) == np.arange(b)).all()


class TestTrain:
    def _tiny_data(self, seed=0, n=40, dims=(2, 2, 2)):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, 5))
        tensors = rng.uniform(0.01, 1.0, (n, *dims))
        return x, tensors

    def test_single_sample_overfit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 5))
        t = np.zeros((1, 2, 2, 2))
        t[0, 1, 0, 1] = 1.0
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=0)
        hyper = pr.TrainConfig(lr=1.0, epochs=500, batch=1, patience=1000)
        trained, history = train_on_tensors(model, x, t, hyper, x, t)
        assert history[-1][1] < 0.01

    def test_deterministic_given_seed(self):
        x, t = self._tiny_data(seed=3)
        hyper = pr.TrainConfig(lr=0.3, epochs=20, batch=8)
        runs = []
        for _ in range(2):
            model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=7)
            trained, _ = train_on_tensors(model, x, t, hyper, x, t)
            runs.append((trained.weights.copy(), trained.bias.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_empty_training_set_rejected(self):
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        x, t = np.zeros((0, 5)), pr.targets(model, np.zeros((0, 2, 2, 2)))
        with pytest.raises(EmptyTrainingSetError, match="no valid pixels to train on"):
            pr.train(model, x, t, pr.TrainConfig(), x, t)

    def test_empty_validation_set_rejected(self):
        # the epoch was chosen by the train loss, reported as val_loss
        x, t = self._tiny_data()
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        with pytest.raises(EmptyTrainingSetError, match="no valid pixels to validate on"):
            train_on_tensors(model, x, t, pr.TrainConfig(epochs=5), x[:0], t[:0])

    def test_best_validation_state_returned(self):
        x, t = self._tiny_data(seed=4, n=64)
        xv, tv = self._tiny_data(seed=5, n=32)
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=2)
        hyper = pr.TrainConfig(lr=0.5, epochs=60, batch=16, patience=5)
        trained, history = train_on_tensors(model, x, t, hyper, xv, tv)
        best = min(row[2] for row in history)
        val_loss = pr._epoch_loss(trained, xv, trained.weights, trained.bias,
                                  pr.targets(trained, tv))
        assert val_loss == pytest.approx(best, rel=1e-9)

    def test_lr_decay_recorded(self):
        # a grossly oversized step makes the loss oscillate, so the
        # patience rule must fire and halve the rate
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (8, 5))
        t = rng.uniform(0.01, 1.0, (8, 2, 2, 2))
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=3)
        hyper = pr.TrainConfig(lr=150.0, epochs=40, batch=4, patience=3)
        _, history = train_on_tensors(model, x, t, hyper, x, t)
        lrs = {row[3] for row in history}
        assert len(lrs) > 1  # decayed at least once

    def test_no_finite_validation_loss_raises(self):
        # the best state started at an infinite loss that no infinite loss
        # beat, so the untrained weights were returned as the best epoch's
        x, t = self._tiny_data(seed=7)
        model = pr.SoftmaxModel.create(5, (2, 2, 2), pr.LossConfig("GR"), seed=1)
        hyper = pr.TrainConfig(lr=1e300, epochs=5, batch=8)
        with pytest.raises(NumericError, match="no epoch gave a finite validation loss"):
            train_on_tensors(model, x, t, hyper, x, t)


class TestTrainedBeatsChance:
    def test_ce_model_on_held_out_scene(self, codebook):
        budget = mt.LinkBudget()
        cfgs = sc.SceneConfig()
        xs, ts = [], []
        for seed in range(4):
            hm = sc.generate_city(32, 32, seed=seed)
            tx = sc.place_tx(hm, seed=seed)
            chans = sc.trace_paths(hm, tx, cfgs)
            pixel_ids, rows = sc.effective_tensor_map(chans, codebook, tx.frame)
            lo_t, blocks = block_grid(*sc.downscale_tensor_map(
                pixel_ids, rows, (hm.rows, hm.cols),
                ~mt.exclusion_mask(rows.reshape(pixel_ids.size, -1), budget), 4))
            valid = blocks & ~pixel_exclusion(lo_t, budget)
            feats = pr.build_features(sc.pool_heightmap(hm, 4), sc.pool_tx(tx, 4))
            xs.append(feats[valid])
            ts.append(lo_t[valid])
        model = pr.SoftmaxModel.create(xs[0].shape[1], (8, 4, 4), seed=0)
        hyper = pr.TrainConfig(lr=0.5, epochs=80, batch=64)
        x, t = np.concatenate(xs[:3]), np.concatenate(ts[:3])
        trained, _ = train_on_tensors(model, x, t, hyper, x, t)
        z = xs[3] @ trained.weights + trained.bias
        preds = pr.flat_ranking(z, (8, 4, 4), "joint")
        report, _ = mt.evaluate_ranking(ts[3], preds, [1], mt.LinkBudget())
        assert report.accuracy[0] > 5 / 128
