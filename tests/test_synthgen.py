from datetime import datetime, timedelta

import numpy as np
import pytest

from cuisine_infer.synthgen import (
    DEFAULT_CUISINE_MIX,
    SynthConfig,
    generate,
    name_for,
    write_outputs,
)
from cuisine_infer.txn_core import CuisineClass, parse_transactions
from cuisine_infer.weak_label import load_taxonomy, tokenize_name


@pytest.fixture(scope="module")
def medium_result():
    return generate(SynthConfig(n_restaurants=100, n_customers=1500, days=30, seed=11))


def test_empty_config():
    res = generate(SynthConfig(n_restaurants=0, n_customers=0, days=0, seed=0))
    assert len(res.transactions) == 0
    assert len(res.truth) == 0


def test_same_seed_byte_identical(tmp_path):
    cfg = SynthConfig(n_restaurants=30, n_customers=200, days=10, seed=42)
    for run in ("a", "b"):
        res = generate(cfg)
        write_outputs(res, tmp_path / f"t_{run}.csv", tmp_path / f"l_{run}.tsv",
                      tmp_path / f"p_{run}.tsv")
    assert (tmp_path / "t_a.csv").read_bytes() == (tmp_path / "t_b.csv").read_bytes()
    assert (tmp_path / "l_a.tsv").read_bytes() == (tmp_path / "l_b.tsv").read_bytes()
    assert (tmp_path / "p_a.tsv").read_bytes() == (tmp_path / "p_b.tsv").read_bytes()


def test_price_ordering_european_vs_dessert():
    res = generate(SynthConfig(n_restaurants=500, n_customers=5000, days=90, seed=7))
    by_cuisine = {CuisineClass.European: [], CuisineClass.Dessert: []}
    t = res.transactions
    for rid, auth in zip(t.merchant_id, t.auth_amount.tolist()):
        cuisine = res.truth.get(rid)
        if cuisine in by_cuisine:
            by_cuisine[cuisine].append(auth)
    assert np.median(by_cuisine[CuisineClass.European]) > \
        np.median(by_cuisine[CuisineClass.Dessert])


def test_all_rows_pass_strict_ingest(medium_result, tmp_path):
    path = tmp_path / "t.csv"
    write_outputs(medium_result, path, tmp_path / "l.tsv", tmp_path / "p.tsv")
    parsed = parse_transactions(path, strict=True)
    assert len(parsed.transactions) == len(medium_result.transactions)


def test_label_marginals_track_mix(medium_result):
    counts = np.zeros(10)
    for _, (cuisine, _) in medium_result.truth.items():
        counts[cuisine] += 1
    mix = np.asarray(DEFAULT_CUISINE_MIX, dtype=float)
    expected = 100 * mix / mix.sum()
    # 3-sigma multinomial bound per class
    sigma = np.sqrt(expected * (1 - mix / mix.sum()))
    assert (np.abs(counts - expected) <= 3 * sigma + 1).all()


def test_weekend_ratio_tracks_profiles():
    res = generate(SynthConfig(n_restaurants=200, n_customers=2000, days=56, seed=5))
    weekend = {c: 0 for c in CuisineClass}
    total = {c: 0 for c in CuisineClass}
    t = res.transactions
    for rid, minute in zip(t.merchant_id, t.minute.tolist()):
        c = res.truth.get(rid)
        total[c] += 1
        if (datetime(1970, 1, 1) + timedelta(minutes=minute)).weekday() >= 5:
            weekend[c] += 1
    assert sum(total.values()) >= 10_000
    # Bar is configured weekend-heavy relative to MMA
    bar = weekend[CuisineClass.Bar] / total[CuisineClass.Bar]
    mma = weekend[CuisineClass.MMA] / total[CuisineClass.MMA]
    assert bar > mma


class TestNameFor:
    def test_forced_keyword(self):
        cfg = SynthConfig(p_kw=1.0)
        tax = load_taxonomy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            name = name_for(CuisineClass.EastAsian, rng, cfg, tax)
            toks = set(tokenize_name(name))
            assert toks & tax.keywords[CuisineClass.EastAsian]

    def test_forced_no_keyword(self):
        cfg = SynthConfig(p_kw=0.0)
        tax = load_taxonomy()
        all_kws = tax.all_keywords()
        rng = np.random.default_rng(0)
        for cuisine in CuisineClass:
            for _ in range(10):
                name = name_for(cuisine, rng, cfg, tax)
                assert not set(tokenize_name(name)) & all_kws

    def test_keyword_rate_binomial(self):
        cfg = SynthConfig(p_kw=0.4)
        tax = load_taxonomy()
        rng = np.random.default_rng(123)
        hits = 0
        n = 10_000
        for i in range(n):
            cuisine = CuisineClass(i % 10)
            name = name_for(cuisine, rng, cfg, tax)
            if set(tokenize_name(name)) & tax.keywords[cuisine]:
                hits += 1
        assert abs(hits / n - 0.4) <= 0.02

    def test_token_count_bounds(self):
        cfg = SynthConfig()
        tax = load_taxonomy()
        rng = np.random.default_rng(2)
        for _ in range(200):
            name = name_for(CuisineClass.Bar, rng, cfg, tax)
            assert 1 <= len(name.split()) <= 4


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SynthConfig(p_kw=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_restaurants=-1)


def test_party_sizes_recorded(medium_result):
    total_party = sum(n for sizes in medium_result.party_sizes.values()
                      for n in sizes.values())
    assert total_party == len(medium_result.transactions)
    assert all(1 <= s <= 6 for sizes in medium_result.party_sizes.values()
               for s in sizes)
