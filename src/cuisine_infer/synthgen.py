"""Seeded synthetic-transaction generator with planted cuisine signals.

Stands in for a real card-transaction feed: every restaurant gets a cuisine,
and price level, tipping, busy hours, day-of-week mix, party sizes, and name
vocabulary all depend on it. Ground-truth labels are emitted alongside so
the whole pipeline can be validated at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .embed import EmbeddingMatrix
from .txn_core import (CuisineClass, Transactions, derive_seed, read_records, to_minute,
                       write_records, write_transactions)
from .weak_label import LabelSet, Taxonomy, load_taxonomy, tokenize_name

START_DATE = datetime(2025, 1, 6)  # a Monday

GENERIC_FILLERS = [
    "HOUSE", "KITCHEN", "PLACE", "CORNER", "GARDEN", "GOLDEN", "ROYAL",
    "FAMILY", "MAIN", "STREET", "VILLAGE", "TOWN", "CITY", "RIVER", "SUNSET",
    "STAR", "HAPPY", "LUCKY", "BLUE", "SILVER", "GREEN", "UNION", "CENTRAL",
    "HARBOR", "PARK", "GROVE", "SUMMIT", "VALLEY", "CROSSING", "TABLE",
]

# Non-seed vocabulary that leans toward one cuisine; these are the words the
# bootstrap step should discover and the name embedding should exploit.
STYLE_WORDS = {
    CuisineClass.LatinAmerican: ["FIESTA", "CASA", "SOMBRERO", "AZTECA", "MARIACHI", "PLAYA"],
    CuisineClass.European: ["VILLA", "CHATEAU", "NONNA", "VIENNA", "ROMA", "PROVENCE"],
    CuisineClass.MMA: ["OASIS", "OLIVE", "SULTAN", "CEDARS", "NILE", "AEGEAN"],
    CuisineClass.SouthAsian: ["SPICE", "TAJ", "GANGES", "RAJA", "SAFFRON", "MAHARAJA"],
    CuisineClass.SouthEastAsian: ["BAMBOO", "ORCHID", "JASMINE", "ELEPHANT", "LOTUS", "MANGO"],
    CuisineClass.EastAsian: ["DRAGON", "PANDA", "JADE", "LANTERN", "EMPIRE", "BLOSSOM"],
    CuisineClass.GrillSteak: ["RANCH", "FLAME", "EMBER", "OAK", "CATTLE", "IRON"],
    CuisineClass.Fastfood: ["SPEEDY", "JUMBO", "CRISPY", "COMBO", "SNACK", "ZESTY"],
    CuisineClass.Bar: ["BARREL", "HOPS", "ANCHOR", "CROW", "CELLAR", "GRIFFIN"],
    CuisineClass.Dessert: ["SWEET", "SUGAR", "HONEY", "VANILLA", "BERRY", "MAPLE"],
}


# Cuisine pairs that are deliberately confusable: identical price, tip,
# day-of-week, and party-size marginals within a pair. Each restaurant in a
# paired cuisine draws a subtype that couples its price level to its busy
# meal (lunch vs dinner), with the coupling inverted between the two pair
# members. Marginal feature blocks then look the same for both cuisines and
# only the price-by-hour interaction tells them apart, so a linear model
# cannot fully separate them while a nonlinear one can.
XOR_PAIRS = (
    (CuisineClass.LatinAmerican, CuisineClass.MMA),
    (CuisineClass.European, CuisineClass.GrillSteak),
    (CuisineClass.SouthAsian, CuisineClass.SouthEastAsian),
)


def _hour_profile(peaks: list[tuple[float, float, float]]) -> np.ndarray:
    """24 hourly weights from (center, width, weight) gaussian bumps."""
    hours = np.arange(24, dtype=float)
    w = np.zeros(24)
    for center, width, weight in peaks:
        d = np.minimum(np.abs(hours - center), 24 - np.abs(hours - center))
        w += weight * np.exp(-0.5 * (d / width) ** 2)
    return w


@dataclass(frozen=True)
class CuisineParams:
    price_log_mu: float      # log of per-person price in cents
    price_log_sigma: float
    tip_rate: float          # fraction of auth; 0 for cash-tip cuisines
    weekday_hours: tuple     # 24 nonnegative weights
    weekend_hours: tuple
    dow_weights: tuple       # 7 weights, Monday first
    party_probs: tuple       # categorical over party sizes 1..6

    def __post_init__(self):
        for profile in (self.weekday_hours, self.weekend_hours, self.dow_weights):
            arr = np.asarray(profile, dtype=float)
            if (arr < 0).any() or arr.sum() <= 0:
                raise ValueError("weight profiles must be nonnegative and not all-zero")
        if not (0 <= self.tip_rate <= 0.5):
            raise ValueError("tip_rate must be in [0, 0.5]")
        p = np.asarray(self.party_probs, dtype=float)
        if len(p) != 6 or (p < 0).any() or abs(p.sum() - 1) > 1e-6:
            raise ValueError("party_probs must be 6 nonnegative values summing to 1")


def _params(mu_cents, sigma, tip, wd_peaks, we_peaks, dow, party) -> CuisineParams:
    return CuisineParams(
        price_log_mu=float(np.log(mu_cents)),
        price_log_sigma=sigma,
        tip_rate=tip,
        weekday_hours=tuple(_hour_profile(wd_peaks)),
        weekend_hours=tuple(_hour_profile(we_peaks)),
        dow_weights=tuple(dow),
        party_probs=tuple(party),
    )


# Neutral two-peak hour profiles for subtype-modulated (paired) cuisines:
# subtype 0 leans lunch, subtype 1 leans dinner (or vice versa, see XOR_PAIRS).
LUNCH_PEAKS = [(12, 1.2, 1.0), (19, 1.4, 0.35)]
DINNER_PEAKS = [(12, 1.2, 0.35), (19, 1.4, 1.0)]
_NEUTRAL_PEAKS = [(12, 1.2, 1.0), (19, 1.4, 1.0)]

DEFAULT_CUISINE_PARAMS: dict[CuisineClass, CuisineParams] = {
    CuisineClass.LatinAmerican: _params(
        1550, 0.28, 0.0,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [1.0, 1.0, 1.0, 1.1, 1.2, 1.1, 0.9], [0.25, 0.35, 0.15, 0.15, 0.07, 0.03]),
    CuisineClass.European: _params(
        2700, 0.27, 0.18,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [0.7, 0.8, 0.9, 1.0, 1.4, 1.6, 1.2], [0.20, 0.45, 0.10, 0.15, 0.07, 0.03]),
    CuisineClass.MMA: _params(
        1550, 0.28, 0.0,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [1.0, 1.0, 1.0, 1.1, 1.2, 1.1, 0.9], [0.25, 0.35, 0.15, 0.15, 0.07, 0.03]),
    CuisineClass.SouthAsian: _params(
        2200, 0.26, 0.11,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [0.9, 0.9, 1.0, 1.0, 1.2, 1.3, 1.0], [0.15, 0.35, 0.20, 0.18, 0.08, 0.04]),
    CuisineClass.SouthEastAsian: _params(
        2200, 0.26, 0.11,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [0.9, 0.9, 1.0, 1.0, 1.2, 1.3, 1.0], [0.15, 0.35, 0.20, 0.18, 0.08, 0.04]),
    CuisineClass.EastAsian: _params(
        1900, 0.28, 0.0,
        [(12, 1.1, 0.9), (18.5, 1.4, 1.0)], [(18, 2.0, 1.0)],
        [1.0, 1.0, 1.0, 1.0, 1.1, 1.0, 1.0], [0.15, 0.40, 0.18, 0.17, 0.07, 0.03]),
    CuisineClass.GrillSteak: _params(
        2700, 0.27, 0.18,
        _NEUTRAL_PEAKS, _NEUTRAL_PEAKS,
        [0.7, 0.8, 0.9, 1.0, 1.4, 1.6, 1.2], [0.20, 0.45, 0.10, 0.15, 0.07, 0.03]),
    CuisineClass.Fastfood: _params(
        1100, 0.35, 0.0,
        [(12, 1.0, 1.0), (18, 1.5, 0.8)], [(13, 2.5, 1.0), (18, 2.0, 0.7)],
        [1.0, 1.0, 1.0, 1.0, 1.1, 1.0, 1.0], [0.45, 0.30, 0.12, 0.08, 0.03, 0.02]),
    CuisineClass.Bar: _params(
        2200, 0.40, 0.18,
        [(21.5, 1.8, 1.0)], [(22, 2.2, 1.0), (15, 2.0, 0.3)],
        [0.5, 0.6, 0.8, 1.1, 1.8, 2.0, 1.0], [0.30, 0.40, 0.15, 0.10, 0.03, 0.02]),
    CuisineClass.Dessert: _params(
        800, 0.30, 0.0,
        [(15, 2.2, 1.0), (10, 1.5, 0.5)], [(14.5, 3.0, 1.0)],
        [0.9, 0.9, 0.9, 1.0, 1.1, 1.3, 1.2], [0.50, 0.30, 0.10, 0.06, 0.03, 0.01]),
}

# Mildly imbalanced class mix, echoing that real cuisine frequencies are skewed.
DEFAULT_CUISINE_MIX = (1.2, 0.9, 0.6, 0.5, 0.7, 1.1, 1.0, 1.6, 1.3, 1.1)


# Generator settings with a single value in use; no config field sets them.
P_STYLE = 0.6                   # prob. an extra name token comes from the cuisine style vocab
PREFERENCE_CONCENTRATION = 0.3  # Dirichlet over the 10 cuisines
VISITS_PER_DAY = 0.25           # mean visits per customer per day
HOME_ZIP_WEIGHT = 4.0           # sampling weight boost for same-zip restaurants
N_ZIPS = 25
SUBTYPE_PRICE_SHIFT = 0.30      # log-price shift between the two subtypes of XOR_PAIRS


@dataclass(frozen=True)
class SynthConfig:
    n_restaurants: int = 100
    n_customers: int = 1000
    days: int = 30
    seed: int = 0
    p_kw: float = 0.4                # prob. a name carries a seed keyword of its cuisine

    def __post_init__(self):
        for name in ("n_restaurants", "n_customers", "days"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if not (0 <= self.p_kw <= 1):
            raise ValueError("p_kw: must be in [0, 1]")


def name_for(cuisine: CuisineClass, rng: np.random.Generator, cfg: SynthConfig,
             taxonomy: Taxonomy) -> str:
    """Draw a 1-4 token restaurant name for a cuisine.

    With probability p_kw the name embeds a uniformly chosen seed keyword of
    the cuisine; remaining tokens come from the cuisine's style vocabulary or
    the shared filler list.
    """
    tokens = []
    use_kw = rng.random() < cfg.p_kw
    n_extra = int(rng.integers(1, 4)) if use_kw else int(rng.integers(1, 5))
    n_extra = min(n_extra, 4 - (1 if use_kw else 0))
    for _ in range(n_extra):
        if rng.random() < P_STYLE:
            vocab = STYLE_WORDS[cuisine]
        else:
            vocab = GENERIC_FILLERS
        tokens.append(vocab[int(rng.integers(0, len(vocab)))])
    if use_kw:
        kws = sorted(taxonomy.keywords[cuisine])
        kw = kws[int(rng.integers(0, len(kws)))]
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), kw)
    return " ".join(t.title() for t in tokens)


@dataclass
class SynthResult:
    transactions: Transactions
    truth: LabelSet
    party_sizes: dict[str, dict[int, int]]  # restaurant_id -> {party size: txn count}
    names: dict[str, str]                   # restaurant_id -> generated name


def _cdf(p) -> np.ndarray:
    """Cumulative table of the categorical p, for `_draw`."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """The index, and the one `rng.random()`, of `rng.choice(len(p), p=p)`."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def generate(cfg: SynthConfig) -> SynthResult:
    """Generate a deterministic transaction log with planted cuisine signals.

    Each distribution becomes a cumulative table once, where its inputs are
    known; every sampled category is then one inverse-CDF draw.
    """
    rng = np.random.default_rng(cfg.seed)
    taxonomy = load_taxonomy()
    classes = list(CuisineClass)
    mix = np.asarray(DEFAULT_CUISINE_MIX, dtype=float)
    mix_cdf = _cdf(mix / mix.sum())

    zips = [f"{int(z):05d}" for z in rng.integers(10000, 99999, size=N_ZIPS)]

    # (id, name, zip, cuisine, log-price mean, [weekday, weekend] hour tables)
    restaurants = []
    truth = LabelSet()
    for i in range(cfg.n_restaurants):
        rid = f"R{i:06d}"
        cuisine = classes[_draw(rng, mix_cdf)]
        zip_code = zips[int(rng.integers(0, len(zips)))]
        name = name_for(cuisine, rng, cfg, taxonomy)
        params = DEFAULT_CUISINE_PARAMS[cuisine]
        price_mu = params.price_log_mu
        hours = (np.asarray(params.weekday_hours), np.asarray(params.weekend_hours))
        for first, second in XOR_PAIRS:
            if cuisine in (first, second):
                subtype = int(rng.random() < 0.5)  # 1 = high-price subtype
                price_mu += SUBTYPE_PRICE_SHIFT * (1 if subtype else -1)
                # XOR coupling: first pair member is dinner-leaning when
                # expensive, second pair member when cheap
                dinner = (subtype == 1) == (cuisine is first)
                hours = (_hour_profile(DINNER_PEAKS if dinner else LUNCH_PEAKS),) * 2
        restaurants.append((rid, name, zip_code, cuisine, price_mu,
                            [_cdf(w / w.sum()) for w in hours]))
        truth.add(rid, cuisine, "truth")

    # start of each day in the window, in minutes, by day of week from Monday
    dates_by_dow = [[to_minute(START_DATE + timedelta(days=d)) for d in range(dow, cfg.days, 7)]
                    for dow in range(7)]
    tables = {}  # cuisine -> (params, day-of-week table, party-size table)
    pools = {}  # (cuisine, home zip) -> (restaurants, table favouring the home zip)
    for cuisine, params in DEFAULT_CUISINE_PARAMS.items():
        dow_w = np.array([w if dates else 0.0
                          for w, dates in zip(params.dow_weights, dates_by_dow)])
        # without days there are no visits, so no day is drawn
        tables[cuisine] = (params, _cdf(dow_w / dow_w.sum()) if cfg.days else None,
                           _cdf(params.party_probs))
        pool = [r for r in restaurants if r[3] is cuisine]
        for home in set(zips) if pool else ():
            w = np.array([HOME_ZIP_WEIGHT if r[2] == home else 1.0 for r in pool])
            pools[cuisine, home] = (pool, _cdf(w / w.sum()))

    rows: list[tuple] = []
    party_sizes: dict[str, dict[int, int]] = {r[0]: {} for r in restaurants}
    for c_idx in range(cfg.n_customers):
        chid = f"C{c_idx:06d}"
        home = zips[int(rng.integers(0, len(zips)))]
        pref = rng.dirichlet(np.full(10, PREFERENCE_CONCENTRATION))
        # symmetrize preferences within each confusable pair so co-visitation
        # patterns cannot tell the pair members apart
        for a, b in XOR_PAIRS:
            avg = (pref[a] + pref[b]) / 2.0
            pref[a] = pref[b] = avg
        pref_cdf = _cdf(pref)
        n_visits = int(rng.poisson(VISITS_PER_DAY * cfg.days))
        for _ in range(n_visits):
            pool, pool_cdf = pools.get((classes[_draw(rng, pref_cdf)], home), ((), None))
            if not pool:  # no restaurant of the drawn cuisine
                continue
            rid, name, zip_code, cuisine, price_mu, hour_cdfs = pool[_draw(rng, pool_cdf)]
            params, dow_cdf, party_cdf = tables[cuisine]
            dow = _draw(rng, dow_cdf)
            day = dates_by_dow[dow][int(rng.integers(0, len(dates_by_dow[dow])))]
            ts = day + 60 * _draw(rng, hour_cdfs[dow >= 5]) + int(rng.integers(0, 60))

            party = 1 + _draw(rng, party_cdf)
            per_person = np.exp(rng.normal(price_mu, params.price_log_sigma))
            auth = max(1, int(round(party * per_person)))
            settle = auth
            if params.tip_rate > 0:
                tip_frac = params.tip_rate * rng.uniform(0.85, 1.15)
                settle = max(int(round(auth * (1 + tip_frac))), auth)

            rows.append((rid, name, zip_code, ts, chid, auth, settle))
            party_sizes[rid][party] = party_sizes[rid].get(party, 0) + 1

    # by timestamp, cardholder, merchant and auth amount
    rows.sort(key=lambda t: (t[3], t[4], t[0], t[5]))
    names = {r[0]: r[1] for r in restaurants}
    return SynthResult(Transactions.from_rows(rows), truth, party_sizes, names)


def write_outputs(result: SynthResult, txn_path, labels_path, party_path) -> None:
    write_transactions(txn_path, result.transactions)
    result.truth.write_tsv(labels_path)
    write_records(party_path, ((rid, str(size), str(counts[size]))
                               for rid, counts in sorted(result.party_sizes.items())
                               for size in sorted(counts)))


def read_party_sizes(path) -> dict[str, dict[int, int]]:
    """Restaurant id -> {party size: transaction count}, from the party-size
    file `write_outputs` writes: one `id<TAB>size<TAB>count` line per
    restaurant and size. Sizes are 1..6 and counts positive; a malformed or
    repeated (id, size) line is a ValueError naming file and line."""
    out: dict[str, dict[int, int]] = {}

    def row(parts):
        if len(parts) != 3 or not parts[0]:
            raise ValueError("expected id<TAB>size<TAB>count")
        rid, size, count = parts[0], int(parts[1]), int(parts[2])
        if not 1 <= size <= 6 or count < 1:
            raise ValueError(f"{rid}: size {size} not in 1..6 or count {count} < 1")
        if size in out.setdefault(rid, {}):
            raise ValueError(f"{rid}: party size {size} listed twice")
        out[rid][size] = count

    read_records(path, row)
    return out


def write_pretrained_vectors(path, names: dict[str, str], dim: int, seed: int) -> None:
    """Emit a deterministic stand-in for an external pretrained vector file.

    One random unit vector per lowercase name token, so name embeddings are
    well-defined without shipping a third-party resource.
    """
    vocab = {t.lower() for name in names.values() for t in tokenize_name(name)}
    vectors = {}
    for tok in vocab:
        v = np.random.default_rng(derive_seed(seed, tok)).normal(size=dim)
        vectors[tok] = v / np.linalg.norm(v)
    EmbeddingMatrix(vectors).write(path)

