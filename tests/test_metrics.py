import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamgrid import channel as ch
from beamgrid import metrics as mt
from beamgrid import scene as sc
from beamgrid.errors import UndefinedResultError

from conftest import assert_report_matches, evaluate_ranking_reference, \
    los_class_reference, paths_at, ranking_from_scores, scene_configs, small_scenes, \
    trace_reference


class TestNoisePower:
    def test_defaults(self):
        assert mt.noise_power_dbm(mt.LinkBudget()) == pytest.approx(-104.0)

    def test_unit_bandwidth(self):
        b = mt.LinkBudget(bandwidth_hz=1.0)
        assert mt.noise_power_dbm(b) == pytest.approx(-174.0)

    def test_noise_figure_additive(self):
        b = mt.LinkBudget(noise_figure_db=3.0)
        assert mt.noise_power_dbm(b) == pytest.approx(-101.0)

    def test_bandwidth_validated(self):
        with pytest.raises(ValueError):
            mt.LinkBudget(bandwidth_hz=0.0)


class TestExclusionMask:
    def test_zero_tensor_excluded(self):
        t = np.zeros((2, 2, 8))
        assert mt.exclusion_mask(t, mt.LinkBudget()).all()

    def test_exact_threshold_included(self):
        # max entry 1.0 is exactly 0 dB; threshold 0 dB keeps it
        t = np.zeros((1, 1, 4))
        t[0, 0, 2] = 1.0
        budget = mt.LinkBudget(exclusion_threshold_db=0.0)
        assert not mt.exclusion_mask(t, budget)[0, 0]
        t[0, 0, 2] = 0.999
        assert mt.exclusion_mask(t, budget)[0, 0]

    def test_matches_naive_per_pixel_check(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 1e-14, (6, 5, 8))
        t[rng.uniform(size=(6, 5)) < 0.4] = 0.0
        budget = mt.LinkBudget()
        mask = mt.exclusion_mask(t, budget)
        for r in range(6):
            for c in range(5):
                peak = t[r, c].max()
                naive = (10 * math.log10(peak) < -147.0) if peak > 0 else True
                assert mask[r, c] == naive

    def test_compact_rows_reduce_over_last_axis_only(self):
        # (n, Na, Ne, Nr) rows: the mask reduces the last axis alone, so the
        # caller flattens the beam axes to get one flag per row
        t = np.zeros((3, 2, 2, 2))
        t[0, 1, 0, 1] = 1.0   # row 0 peaks above 0 dB in one beam only
        t[1] = 0.5            # row 1 peaks below 0 dB in every beam
        budget = mt.LinkBudget(exclusion_threshold_db=0.0)
        assert mt.exclusion_mask(t, budget).shape == (3, 2, 2)
        np.testing.assert_array_equal(
            mt.exclusion_mask(t.reshape(3, -1), budget), [False, True, True])


class TestSnr:
    def test_zero_rss(self):
        assert mt.snr(0.0, mt.LinkBudget()) == 0.0

    def test_path_gain_at_noise_floor(self):
        # -104 dB path gain, defaults: snr = 23 dB
        got = mt.snr(10 ** (-10.4), mt.LinkBudget())
        assert got == pytest.approx(10 ** 2.3, rel=1e-12)

    def test_linearity(self):
        b = mt.LinkBudget()
        assert mt.snr(2e-12, b) == pytest.approx(2 * mt.snr(1e-12, b), rel=1e-12)


def peaked(truths, b):
    """Beam powers of samples whose strongest of b beams are the truths."""
    t = np.full((len(truths), b), 1e-13)
    t[np.arange(len(truths)), truths] = 1e-12
    return t


def score(tensors, rankings, k, budget=None):
    """evaluate_ranking's (accuracy, throughput ratio) at one k."""
    report, _ = mt.evaluate_ranking(tensors, rankings, [k], budget or mt.LinkBudget())
    return report.accuracy[0], report.tpr[0]


class TestTopkAccuracy:
    def test_oracle_predictions(self):
        truths = np.array([3, 1, 7])
        preds = np.array([[3, 0], [1, 0], [7, 0]])
        for k in (1, 2):
            assert score(peaked(truths, 8), preds, k)[0] == 1.0

    def test_rank_three_truth(self):
        truths = np.array([5, 5])
        preds = np.tile([0, 1, 5, 2], (2, 1))
        assert score(peaked(truths, 8), preds, 2)[0] == 0.0
        assert score(peaked(truths, 8), preds, 4)[0] == 1.0

    def test_random_ranking_binomial(self):
        rng = np.random.default_rng(1)
        m, b = 10_000, 128
        truths = rng.integers(0, b, m)
        preds = np.array([rng.permutation(b) for _ in range(m)])
        acc = score(peaked(truths, b), preds, 1)[0]
        p = 1 / b
        sigma = math.sqrt(p * (1 - p) / m)
        assert abs(acc - p) < 3 * sigma

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 tensors vs 1 candidate sets"):
            score(peaked([1, 2], 8), np.array([[1]]), 1)

    def test_k_beyond_candidates_rejected(self):
        with pytest.raises(ValueError, match="k=3 exceeds candidate list length 2"):
            score(peaked([1], 8), np.array([[1, 0]]), 3)


class TestThroughputRatio:
    def test_oracle_predictions(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(1e-13, 1e-12, (20, 16))
        preds = ranking_from_scores(t)
        for k in (1, 4, 16):
            assert score(t, preds, k)[1] == 1.0

    def test_full_candidate_set(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(1e-13, 1e-12, (10, 8))
        preds = np.array([rng.permutation(8) for _ in range(10)])
        assert score(t, preds, 8)[1] == 1.0

    def test_half_snr_candidate(self):
        budget = mt.LinkBudget()
        # unit-SNR optimal: path gain where rx power equals the noise floor
        rss_unit = 10 ** ((mt.noise_power_dbm(budget) - budget.tx_power_dbm) / 10)
        t = np.array([[rss_unit, rss_unit / 2]])
        preds = np.array([[1, 0]])
        got = score(t, preds, 1, budget)[1]
        assert got == pytest.approx(math.log2(1.5) / math.log2(2.0), rel=1e-9)

    def test_empty_sample_set_rejected(self):
        with pytest.raises(UndefinedResultError):
            score(np.zeros((0, 8)), np.zeros((0, 8), dtype=int), 1)

    def test_zero_optimal_rate_rejected(self):
        with pytest.raises(UndefinedResultError, match="zero optimal rate"):
            score(np.zeros((2, 8)), np.tile(np.arange(8), (2, 1)), 1)


class TestMetricInvariants:
    K_LIST = [1, 2, 4, 8, 16, 32]

    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        m, b = 50, 32
        # equal peak power across samples keeps the rate weights comparable
        t = rng.uniform(0.05, 0.6, (m, b)) * 1e-12
        t[np.arange(m), rng.integers(0, b, m)] = 1e-12
        preds = np.array([rng.permutation(b) for _ in range(m)])
        return t, preds

    def test_monotone_and_dominant(self):
        budget = mt.LinkBudget()
        for seed in range(5):
            t, preds = self._random_case(seed)
            rep, _ = mt.evaluate_ranking(t, preds, self.K_LIST, budget)
            accs, tprs = rep.accuracy, rep.tpr
            assert all(a2 >= a1 for a1, a2 in zip(accs, accs[1:]))
            assert all(t2 >= t1 for t1, t2 in zip(tprs, tprs[1:]))
            assert all(tp >= ac for tp, ac in zip(tprs, accs))
            assert accs[-1] == 1.0 and tprs[-1] == 1.0

    def test_accuracy_scale_free(self):
        t, preds = self._random_case(99)
        assert score(t, preds, 4)[0] == score(t * 37.5, preds, 4)[0]


class TestEvaluateRanking:
    def test_report_fields(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(1e-13, 1e-12, (30, 16))
        preds = ranking_from_scores(t + rng.normal(0, 1e-13, t.shape))
        rep, rank = mt.evaluate_ranking(t, preds, [1, 4, 16], mt.LinkBudget(), excluded=7)
        assert rep.samples == 30 and rep.excluded == 7
        assert rank.shape == (30,) and 1 <= rank.min() and rank.max() <= 16
        assert rep.accuracy[-1] == 1.0 and rep.tpr[-1] == 1.0
        assert all(b >= a for a, b in zip(rep.accuracy, rep.accuracy[1:]))

    def test_rank_past_a_truncated_list(self):
        # a sample whose candidates lack its optimal beam ranks one past them
        _, rank = mt.evaluate_ranking(peaked([5, 1], 8), np.array([[0, 1, 2], [1, 0, 2]]),
                                      [1, 3], mt.LinkBudget())
        assert rank.tolist() == [4, 1]

    @given(st.integers(1, 40), st.integers(1, 64), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.5, 0.9]), st.floats(-60.0, 60.0))
    @settings(deadline=None, max_examples=200)
    def test_matches_per_k_reference(self, n, b, seed, zeros, tx_power_dbm):
        # the rates and ranks are computed once for every k; the report and
        # the hits (rank <= k) must be those of the sample-by-sample
        # reference at each k
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 1e-11, (n, b))
        t[rng.uniform(size=(n, b)) < zeros] = 0.0
        t[np.arange(n), rng.integers(0, b, n)] = rng.uniform(1e-13, 1e-11, n)
        preds = np.array([rng.permutation(b) for _ in range(n)])
        k_list = sorted(set(rng.integers(1, b + 1, rng.integers(1, 7)).tolist()))
        budget = mt.LinkBudget(tx_power_dbm=tx_power_dbm)
        rep, rank = mt.evaluate_ranking(t, preds, k_list, budget, excluded=3)
        ref, ref_hits = evaluate_ranking_reference(t, preds, k_list, budget, excluded=3)
        assert_report_matches(rep, ref)
        assert rank.shape == (n,) and 1 <= rank.min() and rank.max() <= b
        assert [(rank <= k).tolist() for k in k_list] == ref_hits


class TestLosClassMap:
    """The tracer's LoS grid (SceneChannels.los), which trace writes as
    <stem>.los.bgrd."""

    def test_empty_map_all_dominant(self):
        hm = sc.HeightMap(np.zeros((16, 16)), np.zeros((16, 16)))
        tx = sc.TxSite((8, 8), 10.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, sc.SceneConfig(vegetation_db_per_m=0.0))
        assert (chans.los == sc.LOS_DOMINANT).all()

    def test_blocked_pixel_nlos(self):
        building = np.zeros((16, 16))
        building[6:11, 8] = 50.0
        building[8, 2] = 10.0
        hm = sc.HeightMap(building, np.zeros((16, 16)))
        tx = sc.TxSite((8, 2), 12.0, ch.ArrayFrame(0.0, math.pi / 4))
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        assert chans.los[8, 12] == sc.NLOS

    def test_attenuated_direct_weaker_than_reflection(self):
        # vegetated corridor on the direct line; strong reflector nearby
        building = np.zeros((16, 16))
        building[2, 2] = 20.0          # tx building
        building[4:12, 12:14] = 30.0   # reflector east of the corridor
        vegetation = np.zeros((16, 16))
        vegetation[6:10, 1:4] = 25.0   # canopy over the direct line only
        hm = sc.HeightMap(building, vegetation)
        tx = sc.TxSite((2, 2), 22.0, ch.ArrayFrame(0.0, math.pi / 4))
        cfg = sc.SceneConfig(vegetation_db_per_m=8.0, reflection_loss_db=0.5)
        chans = sc.trace_paths(hm, tx, cfg)
        r, c = 12, 2
        mags = chans.magnitude[paths_at(chans, r, c)]
        assert chans.has_direct[r, c] and mags.size >= 2
        assert mags[0] < mags[1:].max()  # reflection wins
        assert chans.los[r, c] == sc.LOS_ATTENUATED

    @given(small_scenes(), scene_configs)
    @settings(deadline=None, max_examples=25)
    def test_direct_only_trace_gives_same_map(self, scene, cfg):
        hm, tx = scene
        full = sc.trace_paths(hm, tx, cfg)
        expect = los_class_reference(trace_reference(hm, tx, cfg))
        assert np.array_equal(full.los, expect)
