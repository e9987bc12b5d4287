from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuisine_infer.stat_features import (
    GMM_KMAX,
    STAT_BLOCK_DIMS,
    STAT_DIM,
    GmmError,
    _fit_rows,
    StatFeatureBlock,
    deciles,
    extract_all,
    extract_restaurant,
    gmm_fit,
    gmm_log_joint,
    hourly_capacity,
    loyalty_counts,
    party_features,
    read_features,
    revisit_counts,
    select_k_aic,
    split_blocks,
    temporal_dists,
    tip_series,
    write_features,
    zip_feature,
)
from cuisine_infer.synthgen import SynthConfig, generate
from cuisine_infer.txn_core import Transaction, build_index, derive_seed


def txn(mid="R1", chid="C1", ts="2025-01-06T12:00", auth=1000, settle=1100,
        zip5="12345"):
    return Transaction(mid, "Name", zip5, datetime.strptime(ts, "%Y-%m-%dT%H:%M"),
                       chid, auth, settle)


class TestDeciles:
    def test_ten_point_oracle(self):
        vals = list(range(10, 101, 10))  # 10..100
        d = deciles(vals)
        assert d[0] == pytest.approx(19.0)
        assert d[4] == pytest.approx(55.0)
        assert d[8] == pytest.approx(91.0)

    def test_matches_numpy_linear_quantile(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(50, 12, size=137)
        expected = np.quantile(vals, np.arange(1, 10) / 10.0, method="linear")
        assert np.allclose(deciles(vals), expected)

    def test_empty_is_zeros(self):
        assert np.array_equal(deciles([]), np.zeros(9))

    def test_singleton_constant(self):
        assert np.array_equal(deciles([42.0]), np.full(9, 42.0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, vals):
        d = deciles(vals)
        assert (np.diff(d) >= -1e-9).all()
        assert min(vals) - 1e-9 <= d[0] and d[8] <= max(vals) + 1e-9


def test_tip_series():
    txns = [txn(auth=1000, settle=1150), txn(auth=500, settle=500)]
    assert tip_series(txns) == [150, 0]


def test_hourly_capacity_buckets():
    txns = [txn(ts="2025-01-06T12:05"), txn(ts="2025-01-06T12:55"),
            txn(ts="2025-01-06T13:00"), txn(ts="2025-01-07T12:00")]
    assert hourly_capacity(txns) == [2, 1, 1]
    assert hourly_capacity([]) == []


def test_temporal_dists():
    txns = [txn(ts="2025-01-06T12:00"),   # Monday
            txn(ts="2025-01-11T20:00"),   # Saturday
            txn(ts="2025-01-12T20:00")]   # Sunday
    dow, wd, we = temporal_dists(txns)
    assert dow[0] == pytest.approx(1 / 3) and dow[5] == pytest.approx(1 / 3)
    assert wd[12] == pytest.approx(1.0)
    assert we[20] == pytest.approx(1.0)
    assert dow.sum() == pytest.approx(1.0)
    dow0, wd0, we0 = temporal_dists([])
    assert dow0.sum() == wd0.sum() == we0.sum() == 0.0


def test_revisit_and_loyalty_recount():
    res = generate(SynthConfig(n_restaurants=60, n_customers=400, days=20, seed=2))
    index = build_index(res.transactions)
    rid = sorted(index.restaurants)[0]
    txns = index.restaurants[rid].txns

    expected_rev = {}
    for t in txns:
        expected_rev[t.cardholder_id] = expected_rev.get(t.cardholder_id, 0) + 1
    assert revisit_counts(txns) == [expected_rev[c] for c in sorted(expected_rev)]

    loy = loyalty_counts(txns, index)
    custs = sorted({t.cardholder_id for t in txns})
    brute = [len({t.merchant_id for t in res.transactions if t.cardholder_id == c})
             for c in custs]
    assert loy == brute
    assert all(v >= 1 for v in loy)


class TestGmm:
    def test_single_component_moments(self):
        x = np.array([400.0] * 50 + [600.0] * 50)
        m = gmm_fit(x, K=1, seed=0)
        assert m.mu[0] == pytest.approx(500.0, abs=1e-6)
        assert m.sigma[0] == pytest.approx(100.0, abs=1e-6)
        assert m.phi[0] == pytest.approx(1.0)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(1000, 40, 300), rng.normal(3000, 60, 200)])
        m = gmm_fit(x, K=2, seed=0)
        assert m.mu[0] == pytest.approx(1000, abs=25)
        assert m.mu[1] == pytest.approx(3000, abs=25)
        assert m.phi[0] == pytest.approx(0.6, abs=0.05)
        assert (np.diff(m.mu) > 0).all()

    def test_constant_data_sigma_floor(self):
        x = np.full(30, 1500.0)
        m = gmm_fit(x, K=2, seed=3)
        assert (m.sigma >= 1.0).all()
        assert np.isfinite(m.loglik)

    def test_log_joint_matches_per_component_formula(self):
        rng = np.random.default_rng(5)
        for K in range(1, 7):
            x = rng.integers(100, 20000, size=60).astype(float)
            phi = rng.dirichlet(np.ones(K))
            mu = np.sort(rng.normal(3000, 1500, K))
            sigma = rng.uniform(1, 2000, K)
            expected = np.log(phi)[:, None] + np.stack(
                [-0.5 * np.log(2 * np.pi) - np.log(sigma[k])
                 - 0.5 * ((x - mu[k]) / sigma[k]) ** 2 for k in range(K)])
            assert np.array_equal(gmm_log_joint(x, phi, mu, sigma), expected)

    def test_too_few_points(self):
        with pytest.raises(GmmError):
            gmm_fit([1.0, 2.0], K=3)

    def test_aic_formula(self):
        x = np.random.default_rng(4).normal(100, 10, 80)
        m = gmm_fit(x, K=3, seed=0)
        assert m.aic == pytest.approx(2 * (3 * 3 - 1) - 2 * m.loglik)

    def test_select_k_prefers_two_on_bimodal(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(800, 30, 250), rng.normal(2400, 50, 250)])
        best = select_k_aic(x, K_max=6, seed=0)
        assert best.K == 2

    def test_select_k_prefers_one_on_unimodal(self):
        x = np.random.default_rng(6).normal(1200, 100, 400)
        best = select_k_aic(x, K_max=4, seed=0)
        assert best.K == 1

    def test_select_k_handles_tiny_sample(self):
        best = select_k_aic([5.0, 6.0, 7.0], K_max=6, seed=0)
        assert best.K <= 3


def same_model(a, b) -> bool:
    return (np.array_equal(a.phi, b.phi) and np.array_equal(a.mu, b.mu)
            and np.array_equal(a.sigma, b.sigma) and a.loglik == b.loglik
            and a.aic == b.aic and a.n_iter == b.n_iter
            and a.iter_cap_hits == b.iter_cap_hits)


class TestBatchedEm:
    """Each row of a batched fit equals the same fit as a batch of one."""

    @staticmethod
    def batch(n, rows=6, constant_rows=1, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.integers(300, 20000, size=(rows, n)).astype(float)
        X[:constant_rows] = 1500.0
        seeds = [int(s) for s in rng.integers(0, 2**40, size=rows)]
        return X, seeds

    @pytest.mark.parametrize("n", [1, 2, GMM_KMAX - 1, GMM_KMAX, 9, 40])
    def test_select_k_rows_equal_batch_of_one(self, n):
        X, seeds = self.batch(n, seed=n)
        fits = _fit_rows(X, seeds, range(1, min(GMM_KMAX, n) + 1))
        assert len(fits) == len(X)
        for x, seed, fit in zip(X, seeds, fits):
            assert same_model(fit, select_k_aic(x, K_max=GMM_KMAX, seed=seed))

    def test_sigma_floor_rows(self):
        X, seeds = self.batch(12, rows=4, constant_rows=4)
        for fit, x, seed in zip(_fit_rows(X, seeds, range(2, 3)), X, seeds):
            assert same_model(fit, gmm_fit(x, K=2, seed=seed))
            assert np.array_equal(fit.sigma, np.ones(2))

    def test_iteration_cap_hit_by_some_rows(self):
        X, seeds = self.batch(40, rows=8, constant_rows=3)
        fits = _fit_rows(X, seeds, range(3, 4), max_iter=5)
        assert {f.iter_cap_hits for f in fits} == {0, 1}
        for fit, x, seed in zip(fits, X, seeds):
            assert fit.iter_cap_hits == 0 or fit.n_iter == 5
            assert same_model(fit, gmm_fit(x, K=3, seed=seed, max_iter=5))


class TestPartyFeatures:
    def test_k1_all_mass_first_slot(self):
        x = np.random.default_rng(0).normal(1000, 50, 100)
        m = gmm_fit(x, K=1)
        prop, price = party_features(m, x)
        assert prop[0] == pytest.approx(1.0)
        assert np.array_equal(prop[1:], np.zeros(5))
        assert price[0] == pytest.approx(x.mean())
        assert np.array_equal(price[1:], np.zeros(5))

    def test_props_sum_to_one_price_zero_where_empty(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(900, 30, 150), rng.normal(2700, 40, 50)])
        m = gmm_fit(x, K=2, seed=0)
        prop, price = party_features(m, x)
        assert prop.sum() == pytest.approx(1.0)
        assert prop[0] > prop[1] > 0
        assert price[0] < price[1]
        for k in range(6):
            if prop[k] == 0:
                assert price[k] == 0

    def test_empty_input(self):
        m = gmm_fit([1.0, 2.0, 3.0], K=1)
        prop, price = party_features(m, [])
        assert not prop.any() and not price.any()


class TestZipFeature:
    def test_90210(self):
        z = zip_feature("90210")
        assert np.flatnonzero(z).tolist() == [9, 10, 22, 31, 40]
        assert z.sum() == 5

    def test_malformed(self):
        for bad in ("9021", "9021X", "902100"):
            with pytest.raises(ValueError):
                zip_feature(bad)


class TestAssembly:
    def test_dim_and_blocks(self):
        res = generate(SynthConfig(n_restaurants=20, n_customers=150, days=10, seed=8))
        index = build_index(res.transactions)
        rid = sorted(index.restaurants)[0]
        block = extract_restaurant(rid, index)
        assert set(block.blocks) == set(STAT_BLOCK_DIMS)
        vec = block.concat()
        assert len(vec) == STAT_DIM == 162
        assert np.isfinite(vec).all()

    def test_split_blocks_inverts_concat(self):
        rng = np.random.default_rng(2)
        blocks = {name: rng.normal(size=dim) for name, dim in STAT_BLOCK_DIMS.items()}
        back = split_blocks(StatFeatureBlock(blocks).concat())
        assert list(back) == list(STAT_BLOCK_DIMS)
        for name, arr in blocks.items():
            assert np.array_equal(back[name], arr)

    def test_wrong_dim_rejected(self):
        blocks = {name: np.zeros(dim) for name, dim in STAT_BLOCK_DIMS.items()}
        blocks["dow_dist"] = np.zeros(6)
        with pytest.raises(ValueError):
            StatFeatureBlock(blocks)

    def test_purity_under_transaction_shuffle(self):
        res = generate(SynthConfig(n_restaurants=15, n_customers=120, days=10, seed=9))
        idx1 = build_index(res.transactions)
        shuffled = list(reversed(res.transactions))
        idx2 = build_index(shuffled)
        f1 = extract_all(idx1, seed=1)
        f2 = extract_all(idx2, seed=1)
        assert sorted(f1) == sorted(f2)
        for rid in f1:
            assert np.array_equal(f1[rid].concat(), f2[rid].concat())

    def test_extract_all_equals_extract_restaurant(self):
        res = generate(SynthConfig(n_restaurants=40, n_customers=300, days=10, seed=11))
        index = build_index(res.transactions)
        feats = extract_all(index, seed=5)
        assert list(feats) == list(index.restaurants)
        for rid, got in feats.items():
            one = extract_restaurant(rid, index, seed=derive_seed(5, rid))
            assert np.array_equal(got.concat(), one.concat())
            assert got.empty == one.empty
            assert same_model(got.gmm, one.gmm)

    def test_write_read_round_trip(self, tmp_path):
        res = generate(SynthConfig(n_restaurants=10, n_customers=80, days=8, seed=10))
        index = build_index(res.transactions)
        feats = extract_all(index, seed=0)
        path = tmp_path / "features.tsv"
        write_features(path, feats)
        back = read_features(path)
        assert sorted(back) == sorted(feats)
        for rid in feats:
            assert np.allclose(back[rid], feats[rid].concat(), rtol=1e-6, atol=1e-6)
