from dataclasses import fields
from datetime import datetime, timedelta
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuisine_infer.synthgen import (
    DEFAULT_CUISINE_MIX,
    DEFAULT_CUISINE_PARAMS,
    DINNER_PEAKS,
    HOME_ZIP_WEIGHT,
    LUNCH_PEAKS,
    N_ZIPS,
    PREFERENCE_CONCENTRATION,
    START_DATE,
    SUBTYPE_PRICE_SHIFT,
    VISITS_PER_DAY,
    XOR_PAIRS,
    CuisineParams,
    SynthConfig,
    SynthResult,
    _cdf,
    _draw,
    _hour_profile,
    generate,
    name_for,
    write_outputs,
)
from cuisine_infer.txn_core import CuisineClass, Transactions, parse_transactions, to_minute
from cuisine_infer.weak_label import LabelSet, load_taxonomy, tokenize_name


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


def _reference_generate(cfg: SynthConfig) -> SynthResult:
    """The generator that rebuilt each weight array per visit and drew
    through `rng.choice(p=...)`: the oracle generate must equal exactly."""
    rng = np.random.default_rng(cfg.seed)
    taxonomy = load_taxonomy()
    classes = list(CuisineClass)
    mix = np.asarray(DEFAULT_CUISINE_MIX, dtype=float)
    mix = mix / mix.sum()

    zips = [f"{int(z):05d}" for z in rng.integers(10000, 99999, size=N_ZIPS)]

    pair_of = {}
    for a, b in XOR_PAIRS:
        pair_of[a] = (a, b)
        pair_of[b] = (a, b)

    rest_ids = [f"R{i:06d}" for i in range(cfg.n_restaurants)]
    rest_cuisine = {}
    rest_zip = {}
    rest_name = {}
    rest_subtype = {}   # 1 = high-price subtype, only for paired cuisines
    truth = LabelSet()
    for rid in rest_ids:
        cuisine = classes[int(rng.choice(10, p=mix))]
        rest_cuisine[rid] = cuisine
        rest_zip[rid] = zips[int(rng.integers(0, len(zips)))]
        rest_name[rid] = name_for(cuisine, rng, cfg, taxonomy)
        if cuisine in pair_of:
            rest_subtype[rid] = int(rng.random() < 0.5)
        truth.add(rid, cuisine, "truth")

    lunch_profile = _hour_profile(LUNCH_PEAKS)
    dinner_profile = _hour_profile(DINNER_PEAKS)

    by_cuisine: dict[CuisineClass, list[str]] = {c: [] for c in classes}
    for rid in rest_ids:
        by_cuisine[rest_cuisine[rid]].append(rid)

    dates_by_dow: dict[int, list[int]] = {d: [] for d in range(7)}
    for d in range(cfg.days):
        day = START_DATE + timedelta(days=d)
        dates_by_dow[day.weekday()].append(to_minute(day))

    rows: list[tuple] = []
    party_sizes: dict[str, dict[int, int]] = {rid: {} for rid in rest_ids}

    for c_idx in range(cfg.n_customers):
        chid = f"C{c_idx:06d}"
        home = zips[int(rng.integers(0, len(zips)))]
        pref = rng.dirichlet(np.full(10, PREFERENCE_CONCENTRATION))
        for a, b in XOR_PAIRS:
            avg = (pref[a] + pref[b]) / 2.0
            pref[a] = pref[b] = avg
        n_visits = int(rng.poisson(VISITS_PER_DAY * cfg.days))
        for _ in range(n_visits):
            cuisine = classes[int(rng.choice(10, p=pref))]
            pool = by_cuisine[cuisine]
            if not pool:
                continue
            weights = np.array(
                [HOME_ZIP_WEIGHT if rest_zip[r] == home else 1.0 for r in pool])
            rid = pool[int(rng.choice(len(pool), p=weights / weights.sum()))]
            params: CuisineParams = DEFAULT_CUISINE_PARAMS[rest_cuisine[rid]]

            dow_w = np.array([params.dow_weights[d] if dates_by_dow[d] else 0.0
                              for d in range(7)])
            if dow_w.sum() <= 0:
                continue
            dow = int(rng.choice(7, p=dow_w / dow_w.sum()))
            day = dates_by_dow[dow][int(rng.integers(0, len(dates_by_dow[dow])))]
            price_mu = params.price_log_mu
            if rid in rest_subtype:
                subtype = rest_subtype[rid]
                price_mu += SUBTYPE_PRICE_SHIFT * (1 if subtype else -1)
                first, _second = pair_of[rest_cuisine[rid]]
                dinner = (subtype == 1) if rest_cuisine[rid] is first \
                    else (subtype == 0)
                profile = dinner_profile if dinner else lunch_profile
            else:
                profile = np.asarray(
                    params.weekend_hours if dow >= 5 else params.weekday_hours)
            hour = int(rng.choice(24, p=profile / profile.sum()))
            minute = int(rng.integers(0, 60))
            ts = day + 60 * hour + minute

            party = 1 + int(rng.choice(6, p=np.asarray(params.party_probs)))
            per_person = np.exp(rng.normal(price_mu, params.price_log_sigma))
            auth = max(1, int(round(party * per_person)))
            if params.tip_rate > 0:
                tip_frac = params.tip_rate * rng.uniform(0.85, 1.15)
                settle = int(round(auth * (1 + tip_frac)))
            else:
                settle = auth
            settle = max(settle, auth)

            rows.append((rid, rest_name[rid], rest_zip[rid], ts, chid, auth, settle))
            party_sizes[rid][party] = party_sizes[rid].get(party, 0) + 1

    rows.sort(key=lambda t: (t[3], t[4], t[0], t[5]))
    return SynthResult(Transactions.from_rows(rows), truth, party_sizes, rest_name)


# days 1-6 leave weekdays with no date; 0 restaurants leave every pool empty
_ORACLE_GRID = [
    SynthConfig(n_restaurants=n_rest, n_customers=n_cust, days=days, seed=seed, p_kw=p_kw)
    for seed, (days, n_rest, (n_cust, p_kw)) in enumerate(product(
        (0, 1, 2, 3, 4, 5, 6, 14), (0, 1, 2, 3, 4, 5, 40),
        ((0, 0.0), (1, 1.0), (300, 0.0), (300, 1.0))))
]


class TestGenerateOracle:
    @pytest.mark.parametrize("cfg", _ORACLE_GRID, ids=lambda c: (
        f"d{c.days}-r{c.n_restaurants}-c{c.n_customers}-kw{c.p_kw:g}"))
    def test_equals_choice_generator(self, cfg):
        res, ref = generate(cfg), _reference_generate(cfg)
        for f in fields(Transactions):
            col, ref_col = getattr(res.transactions, f.name), getattr(ref.transactions, f.name)
            assert col.dtype == ref_col.dtype and np.array_equal(col, ref_col), f.name
        assert list(res.truth.items()) == list(ref.truth.items())
        assert res.party_sizes == ref.party_sizes
        assert res.names == ref.names

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=30)
           .filter(any), st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    @example([1.0], 0)
    @example([0.0, 1.0, 0.0], 3)
    @example([0.0, 0.0, 2.5, 0.0, 1e-6], 11)
    def test_table_draw_equals_choice(self, weights, seed):
        w = np.asarray(weights)
        p = w / w.sum()
        table_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _draw(table_rng, _cdf(p)) == int(choice_rng.choice(len(p), p=p))
        assert table_rng.bit_generator.state == choice_rng.bit_generator.state
