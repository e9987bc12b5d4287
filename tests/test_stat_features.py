import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from conftest import (VECTOR_LINE_EDITS, edit_vector_file, extract_restaurant, read_both_ways,
                      same_vectors, take)
from hypothesis import given, settings
from hypothesis import strategies as st

from cuisine_infer.stat_features import (
    BLOCKS,
    GMM_KMAX,
    STAT_BLOCK_DIMS,
    STAT_DIM,
    GmmError,
    _fit_rows,
    deciles,
    extract_all,
    gmm_fit,
    gmm_log_joint,
    loyalty,
    party_features,
    read_features,
    select_k_aic,
    temporal_dists,
    write_features,
    zip_feature,
)
from cuisine_infer.synthgen import SynthConfig, generate
from cuisine_infer.txn_core import (TIMESTAMP_FMT, Transactions, build_index, derive_seed,
                                    to_minute)

EPOCH = datetime(1970, 1, 1)


def txn(mid="R1", chid="C1", ts="2025-01-06T12:00", auth=1000, settle=1100,
        zip5="12345"):
    return (mid, "Name", zip5, to_minute(datetime.strptime(ts, TIMESTAMP_FMT)), chid, auth,
            settle)


def split(row: np.ndarray) -> dict:
    """Block name -> that block's columns of a feature row."""
    return {name: row[cols] for name, cols in BLOCKS.items()}


def blocks_of(*rows) -> dict:
    """The feature blocks of restaurant R1 in a log of `rows`."""
    return split(extract_restaurant("R1", build_index(Transactions.from_rows(rows)))[0])


def minutes(*stamps) -> np.ndarray:
    return np.array([txn(ts=ts)[3] for ts in stamps], dtype=np.int64)


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
    blocks = blocks_of(txn(auth=1000, settle=1150), txn(auth=500, settle=500))
    assert np.array_equal(blocks["tip_deciles"], deciles([150, 0]))


def test_hourly_capacity_buckets():
    blocks = blocks_of(txn(ts="2025-01-06T12:05"), txn(ts="2025-01-06T12:55"),
                       txn(ts="2025-01-06T13:00"), txn(ts="2025-01-07T12:00"))
    assert np.array_equal(blocks["capacity_deciles"], deciles([2, 1, 1]))


def test_temporal_dists():
    dow, wd, we = temporal_dists(minutes("2025-01-06T12:00",    # Monday
                                         "2025-01-11T20:00",    # Saturday
                                         "2025-01-12T20:00"))   # Sunday
    assert dow[0] == pytest.approx(1 / 3) and dow[5] == pytest.approx(1 / 3)
    assert wd[12] == pytest.approx(1.0)
    assert we[20] == pytest.approx(1.0)
    assert dow.sum() == pytest.approx(1.0)
    dow0, wd0, we0 = temporal_dists(minutes())
    assert dow0.sum() == wd0.sum() == we0.sum() == 0.0
    # before 1970 the day of week still counts from Monday
    dow, _, we = temporal_dists(minutes("1969-12-28T23:59"))  # a Sunday
    assert dow[6] == 1.0 and we[23] == 1.0


def test_revisit_and_loyalty_recount():
    res = generate(SynthConfig(n_restaurants=60, n_customers=400, days=20, seed=2))
    t = res.transactions
    index = build_index(t)
    rid = index.restaurant_ids[0]
    at_rid = t.merchant_id == rid
    custs = sorted(set(t.cardholder_id[at_rid]))

    revisits = [int((t.cardholder_id[at_rid] == c).sum()) for c in custs]
    brute = [len(set(t.merchant_id[t.cardholder_id == c])) for c in custs]
    assert loyalty(index)[np.searchsorted(index.cardholder_ids, custs)].tolist() == brute
    assert all(v >= 1 for v in brute)
    blocks = split(extract_restaurant(rid, index)[0])
    assert np.array_equal(blocks["revisit_deciles"], deciles(revisits))
    assert np.array_equal(blocks["loyalty_deciles"], deciles(brute))


# Few distinct values per field, so that rows often tie on some sort keys.
# The days run Monday 1969-12-29 to Sunday 1970-01-04.
_LOG_ROW = st.tuples(
    st.sampled_from(["R1", "R10", "r2"]), st.sampled_from(["A", "B"]),
    st.sampled_from(["12345", "90210"]),
    st.builds(lambda d, m: EPOCH + timedelta(days=d, minutes=m),
              st.integers(-3, 3), st.sampled_from([59, 60, 1439])),
    st.sampled_from(["C1", "C10", "c3"]),
    st.integers(0, 2), st.integers(0, 2))


@given(st.lists(_LOG_ROW, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_table_matches_per_row_recount(log):
    """Index order and every count-based block against a recount of the rows
    with datetime, one restaurant and one cardholder at a time."""
    log = [(m, n, z, ts, c, a, a + tip) for m, n, z, ts, c, a, tip in log]
    index = build_index(Transactions.from_rows(
        [(m, n, z, to_minute(ts), c, a, s) for m, n, z, ts, c, a, s in log]))
    table, models = extract_all(index)

    rids = sorted({row[0] for row in log})
    cids = sorted({row[4] for row in log})
    assert index.restaurant_ids.tolist() == rids
    assert table.shape == (len(rids), STAT_DIM) and len(models) == len(rids)
    assert index.cardholder_ids.tolist() == cids
    visited = {c: {row[0] for row in log if row[4] == c} for c in cids}
    for r, rid in enumerate(rids):
        rows = sorted((ts, c, a, s) for m, _n, _z, ts, c, a, s in log if m == rid)
        first = next(row for row in log if row[0] == rid)
        assert (index.names[r], index.zips[r]) == (first[1], first[2])
        at = slice(index.starts[r], index.starts[r + 1])
        assert [(EPOCH + timedelta(minutes=int(m)), index.cardholder_ids[c], int(a), int(s))
                for m, c, a, s in zip(index.minute[at], index.cardholder[at],
                                      index.auth_amount[at], index.settle_amount[at])] == rows

        dow, wd, we = np.zeros(7), np.zeros(24), np.zeros(24)
        hours: dict = {}
        for ts, *_ in rows:
            dow[ts.weekday()] += 1
            (we if ts.weekday() >= 5 else wd)[ts.hour] += 1
            hours[(ts.date(), ts.hour)] = hours.get((ts.date(), ts.hour), 0) + 1
        visits = {c: sum(row[1] == c for row in rows) for _, c, _, _ in rows}
        expected = {
            "tip_deciles": deciles([s - a for *_, a, s in rows]),
            "capacity_deciles": deciles(list(hours.values())),
            "revisit_deciles": deciles(list(visits.values())),
            "loyalty_deciles": deciles([len(visited[c]) for c in visits]),
            "dow_dist": dow / dow.sum(),
            "weekday_hour_dist": wd / wd.sum() if wd.sum() else wd,
            "weekend_hour_dist": we / we.sum() if we.sum() else we,
        }
        for name, want in expected.items():
            assert np.array_equal(table[r, BLOCKS[name]], want), name
    for c, cid in enumerate(cids):
        visits = sorted((ts, a, m, s) for m, _n, _z, ts, ch, a, s in log if ch == cid)
        got = index.merchants[index.card_starts[c]:index.card_starts[c + 1]]
        assert index.restaurant_ids[got].tolist() == [m for _ts, _a, m, _s in visits]


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
    """Each run of a batched fit equals the same fit as a batch of one."""

    @staticmethod
    def batch(n, rows=6, constant_rows=1, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.integers(300, 20000, size=(rows, n)).astype(float)
        X[:constant_rows] = 1500.0
        seeds = [int(s) for s in rng.integers(0, 2**40, size=rows)]
        return X, seeds

    @staticmethod
    def ragged(seed=19):
        """Runs of 1, 2, 5, 6, 9, 40 and 200 points, three of each length:
        random amounts, one constant amount, and amounts that each appear
        twice, so that a K = n fit has duplicate components."""
        rng = np.random.default_rng(seed)
        runs = []
        for n in (1, 2, GMM_KMAX - 1, GMM_KMAX, 9, 40, 200):
            runs.append(rng.integers(300, 20000, size=n).astype(float))
            runs.append(np.full(n, 1500.0))
            runs.append(np.repeat(rng.integers(300, 20000, size=(n + 1) // 2), 2)[:n]
                        .astype(float))
        seeds = [int(s) for s in rng.integers(0, 2**40, size=len(runs))]
        return runs, seeds

    @pytest.mark.parametrize("n", [1, 2, GMM_KMAX - 1, GMM_KMAX, 9, 40])
    def test_select_k_rows_equal_batch_of_one(self, n):
        X, seeds = self.batch(n, seed=n)
        fits = _fit_rows(X.ravel(), [n] * len(X), seeds, range(1, GMM_KMAX + 1))
        assert len(fits) == len(X)
        for x, seed, fit in zip(X, seeds, fits):
            assert same_model(fit, select_k_aic(x, K_max=GMM_KMAX, seed=seed))

    def test_sigma_floor_rows(self):
        X, seeds = self.batch(12, rows=4, constant_rows=4)
        for fit, x, seed in zip(_fit_rows(X.ravel(), [12] * 4, seeds, range(2, 3)), X, seeds):
            assert same_model(fit, gmm_fit(x, K=2, seed=seed))
            assert np.array_equal(fit.sigma, np.ones(2))

    def test_iteration_cap_hit_by_some_rows(self):
        X, seeds = self.batch(40, rows=8, constant_rows=3)
        fits = _fit_rows(X.ravel(), [40] * 8, seeds, range(3, 4), max_iter=5)
        assert {f.iter_cap_hits for f in fits} == {0, 1}
        for fit, x, seed in zip(fits, X, seeds):
            assert fit.iter_cap_hits == 0 or fit.n_iter == 5
            assert same_model(fit, gmm_fit(x, K=3, seed=seed, max_iter=5))

    def test_ragged_select_k_equals_batch_of_one_in_any_order(self):
        runs, seeds = self.ragged()
        fits = _fit_rows(np.concatenate(runs), [len(x) for x in runs], seeds,
                         range(1, GMM_KMAX + 1))
        assert len(fits) == len(runs)
        assert any(f.iter_cap_hits for f in fits)
        for x, seed, fit in zip(runs, seeds, fits):
            assert same_model(fit, select_k_aic(x, K_max=GMM_KMAX, seed=seed))
        order = np.random.default_rng(0).permutation(len(runs))
        shuffled = _fit_rows(np.concatenate([runs[i] for i in order]),
                             [len(runs[i]) for i in order], [seeds[i] for i in order],
                             range(1, GMM_KMAX + 1))
        for i, fit in zip(order, shuffled):
            assert same_model(fit, fits[i])

    @pytest.mark.parametrize("K", range(1, GMM_KMAX + 1))
    def test_ragged_fixed_k_equals_batch_of_one(self, K):
        """Every run long enough for K, including the K = n fits of runs with
        duplicate amounts and runs stopped by max_iter."""
        runs, seeds = self.ragged()
        runs, seeds = zip(*[(x, s) for x, s in zip(runs, seeds) if len(x) >= K])
        for max_iter in (5, 200):
            fits = _fit_rows(np.concatenate(runs), [len(x) for x in runs], seeds,
                             range(K, K + 1), max_iter=max_iter)
            for x, seed, fit in zip(runs, seeds, fits):
                assert same_model(fit, gmm_fit(x, K=K, seed=seed, max_iter=max_iter))
            if max_iter == 5 and K > 1:
                assert {f.iter_cap_hits for f in fits} == {0, 1}


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
        z = zip_feature(["90210", "00000"])
        assert z.shape == (2, 50)
        assert np.flatnonzero(z[0]).tolist() == [9, 10, 22, 31, 40]
        assert np.flatnonzero(z[1]).tolist() == [0, 10, 20, 30, 40]
        assert z.sum() == 10

    def test_malformed(self):
        for bad in ("9021", "9021X", "902100", "1234\u00b2", "１２３４５"):
            with pytest.raises(ValueError, match=re.escape(f"malformed zip5: {bad!r}")):
                zip_feature(["12345", bad])


class TestAssembly:
    def test_dim_and_blocks(self):
        """A table row is the 11 block functions' outputs, concatenated in
        STAT_BLOCK_DIMS order."""
        res = generate(SynthConfig(n_restaurants=20, n_customers=150, days=10, seed=8))
        index = build_index(res.transactions)
        table, models = extract_all(index, seed=4)
        r = 3
        row, model = table[r], models[r]
        at = slice(index.starts[r], index.starts[r + 1])
        amounts = index.auth_amount[at].astype(float)
        assert same_model(model, select_k_aic(
            amounts, K_max=GMM_KMAX, seed=derive_seed(4, index.restaurant_ids[r])))
        customers, visits = np.unique(index.cardholder[at], return_counts=True)
        blocks = [
            deciles(amounts),
            deciles(index.settle_amount[at] - index.auth_amount[at]),
            deciles(np.unique(index.minute[at] // 60, return_counts=True)[1]),
            deciles(visits),
            deciles(loyalty(index)[customers]),
            *temporal_dists(index.minute[at]),
            *party_features(model, amounts),
            zip_feature([index.zips[r]])[0],
        ]
        assert [len(b) for b in blocks] == list(STAT_BLOCK_DIMS.values())
        assert len(row) == STAT_DIM == 162
        assert np.array_equal(row, np.concatenate(blocks))
        assert np.isfinite(table).all()
        for name, block in zip(STAT_BLOCK_DIMS, blocks):
            assert np.array_equal(row[BLOCKS[name]], block), name

    def test_blocks_tile_the_row(self):
        assert list(BLOCKS) == list(STAT_BLOCK_DIMS)
        end = 0
        for name, cols in BLOCKS.items():
            assert (cols.start, cols.stop, cols.step) == (end, end + STAT_BLOCK_DIMS[name], None)
            end = cols.stop
        assert end == STAT_DIM

    def test_purity_under_transaction_shuffle(self):
        res = generate(SynthConfig(n_restaurants=15, n_customers=120, days=10, seed=9))
        idx1 = build_index(res.transactions)
        idx2 = build_index(take(res.transactions, slice(None, None, -1)))
        assert idx1.restaurant_ids.tolist() == idx2.restaurant_ids.tolist()
        assert np.array_equal(extract_all(idx1, seed=1)[0], extract_all(idx2, seed=1)[0])

    def test_extract_all_equals_extract_restaurant(self):
        res = generate(SynthConfig(n_restaurants=40, n_customers=300, days=10, seed=11))
        index = build_index(res.transactions)
        table, models = extract_all(index, seed=5)
        assert table.shape == (len(index), STAT_DIM) and len(models) == len(index)
        for rid, got, model in zip(index.restaurant_ids.tolist(), table, models):
            row, one = extract_restaurant(rid, index, seed=derive_seed(5, rid))
            assert np.array_equal(got, row)
            assert same_model(model, one)

    def test_empty_index(self):
        table, models = extract_all(build_index(Transactions.from_rows([])))
        assert table.shape == (0, STAT_DIM) and models == []

    def test_write_read_round_trip(self, tmp_path):
        res = generate(SynthConfig(n_restaurants=10, n_customers=80, days=8, seed=10))
        index = build_index(res.transactions)
        table, _ = extract_all(index, seed=0)
        ids = index.restaurant_ids.tolist()
        path = tmp_path / "features.tsv"
        write_features(path, ids, table)
        back = read_features(path)
        assert list(back) == ids
        for rid, row in zip(ids, table):
            assert np.allclose(back[rid], row, rtol=1e-6, atol=1e-6)


def _reference_party_features(model, x):
    """Party shares and prices of one restaurant by a mask per component."""
    prop, price = np.zeros(6), np.zeros(6)
    if len(x) == 0:
        return prop, price
    assign = np.argmax(gmm_log_joint(x, model.phi, model.mu, model.sigma), axis=0)
    for k in range(min(model.K, 6)):
        mask = assign == k
        prop[k] = mask.mean()
        if mask.any():
            price[k] = x[mask].mean()
    s = prop.sum()
    if s > 0:
        prop /= s
    return prop, price


def _random_model(rng, K):
    from cuisine_infer.stat_features import GmmModel

    return GmmModel(rng.dirichlet(np.ones(K)), np.sort(rng.uniform(100, 5000, K)),
                    rng.uniform(1, 800, K), 0.0, 0.0)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_block_functions_per_segment(lengths, seed):
    """Each segment's row of a block function equals the function of that
    segment alone, empty segments included; party features, for mixtures of
    1 to 6 components, also equal a mask per component."""
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    values = rng.integers(0, 6000, starts[-1]).astype(float)
    minute = rng.integers(-10**6, 10**8, starts[-1])
    models = [_random_model(rng, int(rng.integers(1, GMM_KMAX + 1))) for _ in lengths]
    dec = deciles(values, starts)
    temporal = temporal_dists(minute, starts)
    prop, price = party_features(models, values, starts)
    assert dec.shape == (len(lengths), 9) and prop.shape == price.shape == (len(lengths), 6)
    for s, model in enumerate(models):
        rows = slice(starts[s], starts[s + 1])
        assert np.array_equal(dec[s], deciles(values[rows]))
        for got, want in zip(temporal, temporal_dists(minute[rows])):
            assert np.array_equal(got[s], want)
        for got, want, oracle in zip((prop[s], price[s]), party_features(model, values[rows]),
                                     _reference_party_features(model, values[rows])):
            assert np.array_equal(got, want) and np.array_equal(got, oracle)


@given(st.lists(_LOG_ROW, min_size=1, max_size=40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_extract_all_equals_the_per_restaurant_oracle(log, seed):
    """Every row and mixture of extract_all equals the restaurant's own,
    computed from its rows alone, for restaurants of one and many rows."""
    rng = np.random.default_rng(seed)
    log = [(m, n, z, to_minute(ts), c, int(a * rng.integers(1, 4000)),
            int(a * rng.integers(1, 4000)) + tip)
           for (m, n, z, ts, c, a, tip) in log]
    index = build_index(Transactions.from_rows(log))
    table, models = extract_all(index, seed=seed)
    for r, rid in enumerate(index.restaurant_ids.tolist()):
        row, model = extract_restaurant(rid, index, seed=derive_seed(seed, rid))
        assert np.array_equal(table[r], row)
        assert same_model(models[r], model)


_EDITS = st.sampled_from([*VECTOR_LINE_EDITS, "duplicate id", "blank line", "no separator",
                          "none"])


@given(st.lists(_EDITS, max_size=2), st.integers(0, 100), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_read_features_equals_the_per_line_reader(tmp_path_factory, edits, line_no, n, seed):
    """read_features gives the vectors, or the error message, of the reader
    that parses each line on its own: on valid files and on files with wide
    or short rows, `2#`, `nan`, `1_0`, stray whitespace, empty, repeated or
    missing ids."""
    path = tmp_path_factory.mktemp("features") / "features.tsv"
    rng = np.random.default_rng(seed)
    write_features(path, [f"R{i}" for i in range(n)], rng.normal(0, 1e4, (n, STAT_DIM)))
    for kind in edits:
        if kind != "none":
            edit_vector_file(path, "\t", kind, line_no + 1)
    fast, per_line = read_both_ways(read_features, path)
    assert same_vectors(fast, per_line), (fast, per_line)


@pytest.mark.parametrize("ids, error", [
    (["", "R2"], ":2: empty restaurant id"),
    (["R0", "", "R2"], ":3: empty restaurant id"),
    (["R0", "R1", "R1"], ":4: R1 already listed on line 3"),
])
@pytest.mark.parametrize("slow", [False, True], ids=["fast", "per-line"])
def test_read_features_refuses_an_empty_or_repeated_id(tmp_path, ids, error, slow):
    """An empty id, a line that starts with its tab, is a ValueError naming
    the file and line, whether the file is read whole or line by line (here
    because a `1_0`, which only float() reads, is on the first row)."""
    path = tmp_path / "features.tsv"
    write_features(path, ids, np.ones((len(ids), STAT_DIM)))
    if slow:
        edit_vector_file(path, "\t", "underscore", 1)
    with pytest.raises(ValueError, match=re.escape(f"{path}{error}")):
        read_features(path)
