import concurrent.futures
import functools
import math
import sys
import types
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
from beamgrid.errors import EmptyTrainingSetError

from conftest import batch_loss_grad_reference, batch_loss_reference, ce_loss, ce_loss_sep, \
    cep_loss, cep_loss_sep, gr_loss, ir_loss, targets_reference, train_reference, ws_loss, \
    ws_loss_sep


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
        names = dict(zip(feats.names, feats.values[r, c]))
        assert names["tx_onehot"] == 1.0
        assert names["tx_distance"] == 0.0

    def test_due_east_bearing(self):
        hm = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite((8, 4), 10.0, ch.ArrayFrame(0.0, 0.0))
        feats = pr.build_features(hm, tx)
        sin_b = feats.values[8, 10, list(feats.names).index("tx_bearing_sin")]
        cos_b = feats.values[8, 10, list(feats.names).index("tx_bearing_cos")]
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

    def test_deterministic_and_bounded(self, small_scene):
        hm, tx = small_scene
        a = pr.build_features(hm, tx)
        b = pr.build_features(hm, tx)
        assert np.array_equal(a.values, b.values)
        assert np.abs(a.values).max() <= 1.0 + 1e-12


class TestOraclePredictor:
    def test_perfect_self_accuracy(self, codebook, small_scene):
        hm, tx = small_scene
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        tensors = sc.effective_tensor_map(chans, codebook, tx.frame)
        valid = ~mt.exclusion_mask(tensors, mt.LinkBudget())
        pred = pr.oracle_predictor(tensors, valid)
        rankings = pr.flat_ranking(pred)
        truths = np.argmax(tensors[valid].reshape(len(rankings), -1), axis=1)
        assert mt.topk_accuracy(truths, rankings, 1) == 1.0
        assert mt.throughput_ratio(tensors[valid].reshape(len(rankings), -1),
                                   rankings, 1, mt.LinkBudget()) == 1.0

    def test_zero_entries_ranked_last(self):
        t = np.zeros((1, 1, 2, 2, 2))
        t[0, 0, 0, 0, 0] = 1.0
        t[0, 0, 1, 1, 1] = 0.5
        pred = pr.oracle_predictor(t)
        order = pr.ranking(pred)[0, 0]
        assert list(order[:2]) == [0, 7]

    def test_matches_per_pixel_sort(self, codebook):
        rng = np.random.default_rng(1)
        t = rng.uniform(0, 1, (3, 3, 8, 4, 4))
        pred = pr.oracle_predictor(t)
        order = pr.ranking(pred)
        for r in range(3):
            for c in range(3):
                expect = np.argsort(-t[r, c].ravel(), kind="stable")
                assert np.array_equal(order[r, c], expect)


class TestGeometricPredictor:
    def test_obstacle_free_matches_ground_truth(self, codebook):
        hm = sc.HeightMap(np.zeros((24, 24)), np.zeros((24, 24)))
        tx = sc.TxSite((12, 12), 18.0, ch.ArrayFrame(0.8, math.pi / 4))
        chans = sc.trace_paths(hm, tx, sc.SceneConfig(vegetation_db_per_m=0.0))
        tensors = sc.effective_tensor_map(chans, codebook, tx.frame)
        pred = pr.geometric_predictor(hm, tx, codebook)
        cands = pr.candidates(pred, 1)
        hits = 0
        total = 0
        for r in range(24):
            for c in range(24):
                if not tensors[r, c].any():
                    continue
                total += 1
                hits += int(cands[r, c, 0] == np.argmax(tensors[r, c]))
        assert total > 500
        assert hits / total >= 0.9

    def test_blocked_pixels_still_predicted(self, codebook):
        building = np.zeros((16, 16))
        building[6:11, 8] = 50.0
        hm = sc.HeightMap(building, np.zeros((16, 16)))
        tx = sc.TxSite((8, 2), 12.0, ch.ArrayFrame(0.0, math.pi / 4))
        pred = pr.geometric_predictor(hm, tx, codebook)
        assert np.isfinite(pred.scores[8, 12]).all()

    def test_invariant_to_building_heights(self, codebook):
        rng = np.random.default_rng(2)
        flat = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tall = sc.HeightMap(rng.uniform(0, 30, (16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite((8, 8), 20.0, ch.ArrayFrame(0.3, math.pi / 4))
        a = pr.geometric_predictor(flat, tx, codebook)
        b = pr.geometric_predictor(tall, tx, codebook)
        assert np.array_equal(a.scores, b.scores)


class TestPredict:
    def test_zero_weights_uniform(self):
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        feats = pr.FeatureMaps(values=np.random.default_rng(3).uniform(-1, 1, (4, 4, 5)))
        pred = pr.predict(model, feats)
        p = lo.softmax(pred.scores[2, 2])
        np.testing.assert_allclose(p, 1 / 8, atol=1e-12)

    def test_matches_manual_matrix_product(self):
        rng = np.random.default_rng(4)
        model = pr.SoftmaxModel.create(6, (2, 2, 2))
        model.weights = rng.normal(0, 1, (6, 8))
        model.bias = rng.normal(0, 1, 8)
        feats = pr.FeatureMaps(values=rng.uniform(-1, 1, (5, 5, 6)))
        pred = pr.predict(model, feats)
        for r, c in ((0, 0), (2, 3), (4, 4)):
            x = feats.values[r, c]
            np.testing.assert_allclose(pred.scores[r, c],
                                       model.weights.T @ x + model.bias,
                                       rtol=1e-12)

    def test_pixelwise_independence(self):
        rng = np.random.default_rng(5)
        model = pr.SoftmaxModel.create(4, (2, 2, 2))
        model.weights = rng.normal(0, 1, (4, 8))
        vals = rng.uniform(-1, 1, (3, 4, 4))
        pred_a = pr.predict(model, pr.FeatureMaps(values=vals))
        flipped = vals[::-1].copy()
        pred_b = pr.predict(model, pr.FeatureMaps(values=flipped))
        assert np.array_equal(pred_a.scores[::-1], pred_b.scores)

    def test_dim_mismatch_rejected(self):
        model = pr.SoftmaxModel.create(9, (2, 2, 2))
        feats = pr.FeatureMaps(values=np.zeros((2, 2, 5)))
        with pytest.raises(ValueError):
            pr.predict(model, feats)


class TestCandidates:
    def test_oracle_top1_is_optimal(self, codebook):
        rng = np.random.default_rng(6)
        t = rng.uniform(0, 1, (2, 2, 8, 4, 4))
        pred = pr.oracle_predictor(t)
        cands = pr.candidates(pred, 1)
        for r in range(2):
            for c in range(2):
                assert cands[r, c, 0] == int(np.argmax(t[r, c]))

    def test_full_candidate_set_in_rank_order(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 1, (1, 1, 2, 2, 2))
        pred = pr.oracle_predictor(t)
        cands = pr.candidates(pred, 8)
        assert sorted(cands[0, 0]) == list(range(8))

    def test_sep_matches_bruteforce_product(self):
        rng = np.random.default_rng(8)
        na, ne, nr = 8, 4, 4
        scores = rng.normal(0, 1, (2, 2, na + ne + nr))
        pred = pr.PredictionMap(scores=scores, valid=np.ones((2, 2), bool),
                                dims=(na, ne, nr), kind="sep")
        order = pr.ranking(pred)
        for r in range(2):
            for c in range(2):
                za = scores[r, c, :na]
                ze = scores[r, c, na:na + ne]
                zr = scores[r, c, na + ne:]
                la, le, lr = (z - _lse(z, axis=0) for z in (za, ze, zr))
                joint = np.add.outer(np.add.outer(la, le), lr).ravel()
                expect = np.argsort(-joint, kind="stable")
                assert np.array_equal(order[r, c], expect)

    def test_nested_in_k(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(0, 1, (2, 2, 2, 2, 2))
        pred = pr.oracle_predictor(t)
        c4 = pr.candidates(pred, 4)
        c5 = pr.candidates(pred, 5)
        assert np.array_equal(c5[..., :4], c4)

    def test_k_out_of_range(self):
        pred = pr.oracle_predictor(np.ones((1, 1, 2, 2, 2)))
        with pytest.raises(ValueError):
            pr.candidates(pred, 0)
        with pytest.raises(ValueError):
            pr.candidates(pred, 9)

    def test_invalid_pixels_marked(self):
        t = np.ones((2, 1, 2, 2, 2))
        valid = np.array([[True], [False]])
        pred = pr.oracle_predictor(t, valid)
        cands = pr.candidates(pred, 2)
        assert (cands[1, 0] == -1).all() and (cands[0, 0] >= 0).all()


class TestBatchLossConsistency:
    """The vectorised batch losses must match the per-sample references."""

    def _setup(self, kind, sep, seed=0):
        rng = np.random.default_rng(seed)
        dims = (4, 3, 2)
        b = 24
        n = 6
        model = pr.SoftmaxModel.create(5, dims, loss_kind=kind, sep=sep)
        c = model.weights.shape[1]
        z = rng.normal(0, 1, (n, c))
        tensors = rng.uniform(0.01, 1.0, (n, *dims))
        targets = pr._targets_for(model, tensors)
        return model, z, tensors, targets, dims

    @staticmethod
    def _loss_grad(model, z, targets):
        return loss_of_scores(model, z, targets), pr._batch_grad(model, z, targets)

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
        # targets are the floored-dB marginals from the losses module
        ga, ge, gr_t = lo.gr_target_db_sep(tensors[0])
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
    """_targets_for, _epoch_loss and _batch_grad reproduce the loss code they
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
            model = pr.SoftmaxModel.create(5, dims, loss_kind=kind, sep=sep)
            z = scores[:, :model.weights.shape[1]]
            targets = pr._targets_for(model, tensors)
            ref_targets = targets_reference(model, tensors)
            assert targets.dtype == ref_targets.dtype
            assert targets.shape == ref_targets.shape
            assert targets.tobytes() == ref_targets.tobytes()
            dmat = lo.beam_distance_matrix(dims) if (kind, sep) == ("WS", False) else None
            ref_loss, ref_grad = batch_loss_grad_reference(model, z, targets, dmat)
            assert pr._batch_grad(model, z, targets).tobytes() == ref_grad.tobytes()
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
                model = pr.SoftmaxModel.create(features, dims, loss_kind=kind, sep=sep)
                c = model.weights.shape[1]
                w = rng.normal(0.0, scale / features, (features, c))
                b = rng.normal(0.0, 1.0, c)
                self._check(model, x, w, b, pr._targets_for(model, tensors))

    # BLAS rounds a one-row product, and the rows of a one-column product by
    # their position in it, differently from the same rows of a larger
    # product. A difference of one ulp in a score often rounds away in the
    # loss, so each case below takes 20 draws.

    @pytest.mark.parametrize("n", [3, 9])
    def test_last_single_row(self, n):
        rng = np.random.default_rng(n)
        model = pr.SoftmaxModel.create(9, (8, 4, 4), loss_kind="CE")
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", 1):  # blocks of two rows
            for _ in range(20):
                x = rng.normal(0.0, 1.0, (n, 9))
                w, b = rng.normal(0.0, 3.0, (9, 128)), rng.normal(0.0, 1.0, 128)
                targets = rng.integers(0, 128, n)
                self._check(model, x, w, b, targets)

    @pytest.mark.parametrize("n", [2, 7, 9])
    def test_one_column_model(self, n):
        rng = np.random.default_rng(n)
        model = pr.SoftmaxModel.create(9, (1, 1, 1), loss_kind="GR")
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", 1):
            for _ in range(20):
                x = rng.normal(0.0, 1.0, (n, 9))
                w, b = rng.normal(0.0, 1.0, (9, 1)), rng.normal(0.0, 1.0, 1)
                targets = rng.normal(0.0, 1.0, (n, 1))
                self._check(model, x, w, b, targets)


@st.composite
def training_runs(draw):
    """One loss configuration, 1-4 beams per axis, 1-48 training samples of
    1-10 features, no validation set or one of 1-16 samples, a rate of 0 or
    up to 3, and a patience of 1-3 epochs with min_lr_factor 0.2, so that
    the rate decays and training can stop early."""
    kind, sep = draw(st.sampled_from(ALL_LOSSES))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    features = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_val = draw(st.integers(1, 48)), draw(st.sampled_from([0, 1, 5, 16]))

    def samples(count):
        tensors = rng.uniform(0.0, 1.0, (count, *dims))
        tensors.reshape(count, -1)[:, 0] += 0.5  # a positive peak in every sample
        return rng.normal(0.0, 1.0, (count, features)), tensors

    hyper = pr.TrainConfig(lr=draw(st.sampled_from([0.0, 0.05, 0.5, 3.0])),
                           epochs=draw(st.integers(1, 12)), batch=draw(st.integers(1, 16)),
                           patience=draw(st.integers(1, 3)), min_lr_factor=0.2)
    model = pr.SoftmaxModel.create(features, dims, loss_kind=kind, sep=sep,
                                   seed=draw(st.integers(0, 3)))
    return model, samples(n), samples(n_val) if n_val else (None, None), hyper


class TestTrainMatchesReference:
    """train, with its blocked epoch losses and its worker thread, writes the
    weights, biases and history of the loop it replaced (conftest)."""

    @given(training_runs(), st.sampled_from([1, 7, pr.LOSS_BLOCK_VALUES]), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_same_bytes(self, run, block_values, late):
        model, (x, t), (xv, tv), hyper = run
        # a rate of 3 can make squared-error training overflow: both must
        # then give the same infinities and NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            ref, ref_history = train_reference(model, x, t, hyper, xv, tv)
        # late: every train loss is computed only when train reads it, an
        # epoch later or after the loop, so a worker that read the live
        # weights would see a later epoch's
        pool = self._LateExecutor if late else concurrent.futures.ThreadPoolExecutor
        with mock.patch.object(pr, "LOSS_BLOCK_VALUES", block_values), \
                mock.patch.object(concurrent.futures, "ThreadPoolExecutor", pool), \
                np.errstate(over="ignore", invalid="ignore"):
            trained, history = pr.train(model, x, t, hyper, xv, tv)
        assert trained.weights.tobytes() == ref.weights.tobytes()
        assert trained.bias.tobytes() == ref.bias.tobytes()
        assert repr(history) == repr(ref_history)

    def test_worker_follows_callers_errstate(self):
        # without a validation set only the worker squares the diverging
        # scores, and it must overflow as quietly as the caller asked
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, (48, 10))
        t = rng.uniform(0.0, 1.0, (48, 1, 1, 2))
        t[:, 0, 0, 0] += 0.5
        model = pr.SoftmaxModel.create(10, (1, 1, 2), loss_kind="GR")
        hyper = pr.TrainConfig(lr=3.0, epochs=12, batch=1, patience=3, min_lr_factor=0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            ref, ref_history = train_reference(model, x, t, hyper)
            trained, history = pr.train(model, x, t, hyper)
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
            pr.train(model, x, t, pr.TrainConfig(lr=0.0, epochs=10), xv, tv)
        assert val_epochs == [0, 1]

    def test_thread_switches_every_microsecond(self):
        rng = np.random.default_rng(11)
        x, xv = rng.normal(0.0, 1.0, (600, 9)), rng.normal(0.0, 1.0, (100, 9))
        t, tv = rng.uniform(0.01, 1.0, (600, 4, 2, 2)), rng.uniform(0.01, 1.0, (100, 4, 2, 2))
        model = pr.SoftmaxModel.create(9, (4, 2, 2), loss_kind="WS", seed=5)
        hyper = pr.TrainConfig(lr=0.5, epochs=20, batch=32)
        ref, ref_history = train_reference(model, x, t, hyper, xv, tv)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trained, history = pr.train(model, x, t, hyper, xv, tv)
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


class TestIrRankingConsistency:
    def test_batch_matches_per_triple_reference(self):
        rng = np.random.default_rng(10)
        dims = (8, 4, 4)
        scores = rng.uniform(-1, 8, (2, 2, 3))
        pred = pr.PredictionMap(scores=scores, valid=np.ones((2, 2), bool),
                                dims=dims, kind="ir")
        order = pr.ranking(pred)
        for r in range(2):
            for c in range(2):
                expect = lo.ir_ranking(tuple(scores[r, c]), dims)
                assert np.array_equal(order[r, c], expect)


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
        model = pr.SoftmaxModel.create(6, dims, loss_kind=kind, sep=sep, seed=1)
        hyper = pr.TrainConfig(lr=0.1, epochs=15, batch=16)
        trained, history = pr.train(model, x, tensors, hyper)
        assert history[-1][1] <= history[0][1] + 1e-9
        pred = pr.predict(trained, pr.FeatureMaps(values=x.reshape(6, 10, 6)))
        cands = pr.candidates(pred, 3)
        b = dims[0] * dims[1] * dims[2]
        assert cands.shape == (6, 10, 3)
        assert ((0 <= cands) & (cands < b)).all()


class TestTrain:
    def _tiny_data(self, seed=0, n=40, dims=(2, 2, 2)):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n, 5))
        tensors = rng.uniform(0.01, 1.0, (n, *dims))
        return x, tensors

    def test_zero_lr_keeps_weights(self):
        x, t = self._tiny_data()
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=1)
        hyper = pr.TrainConfig(lr=0.0, epochs=5, batch=16)
        trained, history = pr.train(model, x, t, hyper)
        assert not trained.weights.any() and not trained.bias.any()
        losses_seen = {row[1] for row in history}
        assert len(losses_seen) == 1  # flat history

    def test_single_sample_overfit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 5))
        t = np.zeros((1, 2, 2, 2))
        t[0, 1, 0, 1] = 1.0
        model = pr.SoftmaxModel.create(5, (2, 2, 2), loss_kind="CE", seed=0)
        hyper = pr.TrainConfig(lr=1.0, epochs=500, batch=1, patience=1000)
        trained, history = pr.train(model, x, t, hyper)
        assert history[-1][1] < 0.01

    def test_deterministic_given_seed(self):
        x, t = self._tiny_data(seed=3)
        hyper = pr.TrainConfig(lr=0.3, epochs=20, batch=8)
        runs = []
        for _ in range(2):
            model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=7)
            trained, _ = pr.train(model, x, t, hyper)
            runs.append((trained.weights.copy(), trained.bias.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_empty_training_set_rejected(self):
        model = pr.SoftmaxModel.create(5, (2, 2, 2))
        with pytest.raises(EmptyTrainingSetError):
            pr.train(model, np.zeros((0, 5)), np.zeros((0, 2, 2, 2)))

    def test_best_validation_state_returned(self):
        x, t = self._tiny_data(seed=4, n=64)
        xv, tv = self._tiny_data(seed=5, n=32)
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=2)
        hyper = pr.TrainConfig(lr=0.5, epochs=60, batch=16, patience=5)
        trained, history = pr.train(model, x, t, hyper, xv, tv)
        best = min(row[2] for row in history)
        val_loss = pr._epoch_loss(trained, xv, trained.weights, trained.bias,
                                  pr._targets_for(trained, tv))
        assert val_loss == pytest.approx(best, rel=1e-9)

    def test_lr_decay_recorded(self):
        # a grossly oversized step makes the loss oscillate, so the
        # patience rule must fire and halve the rate
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (8, 5))
        t = rng.uniform(0.01, 1.0, (8, 2, 2, 2))
        model = pr.SoftmaxModel.create(5, (2, 2, 2), seed=3)
        hyper = pr.TrainConfig(lr=150.0, epochs=40, batch=4, patience=3)
        _, history = pr.train(model, x, t, hyper)
        lrs = {row[3] for row in history}
        assert len(lrs) > 1  # decayed at least once


class TestTrainedBeatsChance:
    def test_ce_model_on_held_out_scene(self, codebook):
        budget = mt.LinkBudget()
        cfgs = sc.SceneConfig()
        xs, ts = [], []
        for seed in range(4):
            hm = sc.generate_city(32, 32, seed=seed)
            tx = sc.place_tx(hm, seed=seed)
            chans = sc.trace_paths(hm, tx, cfgs)
            tensors = sc.effective_tensor_map(chans, codebook, tx.frame)
            lo_t, blocks = sc.downscale_tensor_map(
                tensors, ~mt.exclusion_mask(tensors, budget), 4)
            valid = blocks & ~mt.exclusion_mask(lo_t, budget)
            feats = pr.build_features(sc.pool_heightmap(hm, 4), sc.pool_tx(tx, 4))
            xs.append(feats.flat()[valid.ravel()])
            ts.append(lo_t[valid])
        model = pr.SoftmaxModel.create(xs[0].shape[1], (8, 4, 4),
                                       loss_kind="CE", seed=0)
        hyper = pr.TrainConfig(lr=0.5, epochs=80, batch=64)
        trained, _ = pr.train(model, np.concatenate(xs[:3]),
                              np.concatenate(ts[:3]), hyper)
        z = xs[3] @ trained.weights + trained.bias
        truths = np.argmax(ts[3].reshape(len(ts[3]), -1), axis=1)
        preds = mt.ranking_from_scores(z)
        acc = mt.topk_accuracy(truths, preds, 1)
        assert acc > 5 / 128
