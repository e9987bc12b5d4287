"""Statistical feature blocks extracted from per-restaurant transaction history.

Eleven blocks: five decile vectors (price, tip, hourly capacity, revisits,
loyalty), three temporal distributions, GMM-based party-size proportions and
prices, and a positional zip-digit one-hot. Total dimensionality 162: a
restaurant's statistics are one row, and `BLOCKS` gives each block's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .txn_core import RestaurantIndex, derive_seed, read_keyed_records, valid_zip5

STAT_BLOCK_DIMS = {
    "price_deciles": 9,
    "tip_deciles": 9,
    "capacity_deciles": 9,
    "revisit_deciles": 9,
    "loyalty_deciles": 9,
    "dow_dist": 7,
    "weekday_hour_dist": 24,
    "weekend_hour_dist": 24,
    "party_prop": 6,
    "party_price": 6,
    "zip_onehot": 50,
}
STAT_DIM = sum(STAT_BLOCK_DIMS.values())  # 162
# Each block's columns in a feature row, in STAT_BLOCK_DIMS order.
BLOCKS = {name: slice(end - dim, end) for (name, dim), end in
          zip(STAT_BLOCK_DIMS.items(), accumulate(STAT_BLOCK_DIMS.values()))}
# Largest mixture tried per restaurant: one component per party-size slot.
GMM_KMAX = STAT_BLOCK_DIMS["party_prop"]


def deciles(values) -> np.ndarray:
    """Nine deciles by linear interpolation on order statistics.

    For p in {0.1..0.9}: h = (n-1)p, result = v[floor(h)] + frac(h) *
    (v[floor(h)+1] - v[floor(h)]). Empty input yields nine zeros.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n == 0:
        return np.zeros(9)
    h = (n - 1) * (np.arange(1, 10) / 10.0)
    lo = np.floor(h).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def temporal_dists(minute: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized day-of-week, weekday-hour, and weekend-hour histograms of
    times in minutes since 1970-01-01 (a Thursday).

    Saturday/Sunday count as weekend. Each histogram sums to 1, or is
    all-zero when the restaurant has no qualifying transactions.
    """
    day = (minute // 1440 + 3) % 7  # Monday = 0
    hour = minute // 60 % 24
    weekend = day >= 5
    dists = (np.bincount(day, minlength=7).astype(float),
             np.bincount(hour[~weekend], minlength=24).astype(float),
             np.bincount(hour[weekend], minlength=24).astype(float))
    for arr in dists:
        s = arr.sum()
        if s > 0:
            arr /= s
    return dists


def loyalty(index: RestaurantIndex) -> np.ndarray:
    """Per cardholder code, the number of distinct restaurants visited."""
    n = len(index.cardholder_ids)
    restaurant = np.repeat(np.arange(len(index)), np.diff(index.starts))
    pairs = np.unique(restaurant * n + index.cardholder)
    return np.bincount(pairs % n, minlength=n)


# --- Gaussian mixture over authorized amounts ---

class GmmError(Exception):
    pass


@dataclass
class GmmModel:
    phi: np.ndarray     # K mixture weights
    mu: np.ndarray      # K means, cents; sorted ascending
    sigma: np.ndarray   # K standard deviations, cents
    loglik: float
    aic: float
    n_iter: int = 0
    # EM fits behind this model that stopped at max_iter before converging:
    # 0 or 1 for one fit, summed over every K tried when chosen by AIC.
    iter_cap_hits: int = 0

    @property
    def K(self) -> int:
        return len(self.mu)


def gmm_log_joint(x: np.ndarray, phi: np.ndarray, mu: np.ndarray,
                  sigma: np.ndarray) -> np.ndarray:
    """(..., K, n) array of log phi_k + log N(x_i | mu_k, sigma_k).

    `x` is (..., n) and the parameters are (..., K); leading axes are a batch.
    """
    mu, sigma = mu[..., :, None], sigma[..., :, None]
    return np.log(phi)[..., :, None] + (
        -0.5 * np.log(2 * np.pi) - np.log(sigma)
        - 0.5 * ((x[..., None, :] - mu) / sigma) ** 2)


def _logsumexp(log_p: np.ndarray) -> np.ndarray:
    """log(sum(exp(log_p))) over the component axis (-2), shifted by its maximum."""
    m = log_p.max(axis=-2)
    return m + np.log(np.exp(log_p - m[..., None, :]).sum(axis=-2))


def _kmeanspp_centres(x: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """K k-means++ centres in draw order. The first J of them are the centres
    a J-centre draw from the same RNG state would give."""
    centers = [x[int(rng.integers(0, len(x)))]]
    for _ in range(K - 1):
        d2 = np.min([(x - c) ** 2 for c in centers], axis=0)
        if d2.sum() <= 0:
            centers.append(x[int(rng.integers(0, len(x)))])
            continue
        centers.append(x[int(np.searchsorted(np.cumsum(d2), rng.random() * d2.sum()))])
    return np.asarray(centers, dtype=float)


def _em(X: np.ndarray, mu: np.ndarray, sd: np.ndarray, floor: np.ndarray,
        max_iter: int, tol: float) -> list[GmmModel]:
    """EM fits of a K-component 1-D mixture to each row of X (B, n), in lockstep.

    `mu` (B, K) holds the sorted initial means, `sd` and `floor` (B,) each
    row's initial sigma and sigma floor. Every row runs exactly the
    iterations a batch of one would: it stops once its log-likelihood gains
    less than `tol` after the first iteration, or after `max_iter`. Raises
    GmmError when any running row's log-likelihood decreases.

    Rows are neither padded nor mixed with other K: numpy's pairwise sums
    group by the row length and BLAS matrix-vector products by the number of
    components, so either would change the result in the last bits.
    """
    B, n = X.shape
    K = mu.shape[1]
    phi = np.full((B, K), 1.0 / K)
    sigma = np.repeat(sd[:, None], K, axis=1)
    out_phi, out_mu, out_sigma = np.empty((B, K)), np.empty((B, K)), np.empty((B, K))
    n_iter = np.full(B, max_iter)
    rows = np.arange(B)
    x, x2, fl = X, X ** 2, floor[:, None]
    prev = np.full(B, -np.inf)
    for it in range(1, max_iter + 1):
        # E step
        log_p = gmm_log_joint(x, phi, mu, sigma)
        log_total = _logsumexp(log_p)
        ll = log_total.sum(axis=1)
        worse = ll + 1e-9 < prev
        if worse.any():
            b = np.argmax(worse)
            raise GmmError(f"log-likelihood decreased: {prev[b]} -> {ll[b]}")
        resp = np.exp(log_p - log_total[:, None, :])
        # M step
        nk = np.maximum(resp.sum(axis=2), 1e-12)
        phi = nk / n
        mu = np.matmul(resp, x[:, :, None])[:, :, 0] / nk
        var = np.matmul(resp, x2[:, :, None])[:, :, 0] / nk - mu ** 2
        sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), fl)
        stop = (ll - prev < tol) & (it > 1)
        prev = ll
        if stop.any():
            done = rows[stop]
            out_phi[done], out_mu[done], out_sigma[done] = phi[stop], mu[stop], sigma[stop]
            n_iter[done] = it
            keep = ~stop
            rows, x, x2, fl, prev, phi, mu, sigma = (
                a[keep] for a in (rows, x, x2, fl, prev, phi, mu, sigma))
            if not len(rows):
                break
    out_phi[rows], out_mu[rows], out_sigma[rows] = phi, mu, sigma
    capped = np.zeros(B, dtype=int)
    capped[rows] = 1

    order = np.argsort(out_mu, axis=1)
    phi, mu, sigma = (np.take_along_axis(a, order, axis=1)
                      for a in (out_phi, out_mu, out_sigma))
    loglik = _logsumexp(gmm_log_joint(X, phi, mu, sigma)).sum(axis=1)
    aic = 2.0 * (3 * K - 1) - 2.0 * loglik
    return [GmmModel(phi[b], mu[b], sigma[b], float(loglik[b]), float(aic[b]),
                     int(n_iter[b]), int(capped[b])) for b in range(B)]


def _fit_rows(X: np.ndarray, seeds, Ks: range, max_iter: int = 200,
              tol: float = 1e-6) -> list[GmmModel]:
    """For each row of X (B, n), the minimum-AIC EM fit over the mixture
    sizes `Ks` (ascending; ties: the smaller K).

    Each row draws its k-means++ centres once, for the largest K, from an RNG
    seeded with its seed; a K-component fit starts from the first K of them,
    sorted. sigma starts at std(x), floored at max(1, 1e-3 * std(x)).
    """
    centres, sd, floor = [], [], []
    for x, seed in zip(X, seeds):
        std = float(np.std(x))
        centres.append(_kmeanspp_centres(x, Ks[-1], np.random.default_rng(seed)))
        floor.append(max(1.0, 1e-3 * std))
        sd.append(max(std, floor[-1]))
    centres, sd, floor = np.array(centres), np.array(sd), np.array(floor)
    best, hits = None, np.zeros(len(X), dtype=int)
    for K in Ks:
        fits = _em(X, np.sort(centres[:, :K], axis=1), sd, floor, max_iter, tol)
        hits += [fit.iter_cap_hits for fit in fits]
        best = fits if best is None else [
            fit if fit.aic < prior.aic else prior for fit, prior in zip(fits, best)]
    for model, h in zip(best, hits):
        model.iter_cap_hits = int(h)
    return best


def gmm_fit(x, K: int, seed: int = 0, max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """EM fit of a K-component 1-D Gaussian mixture: a batch of one.

    k-means++-style initialization; sigma floored at max(1, 1e-3 * std(x));
    raises GmmError if the log-likelihood decreases across iterations.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < K:
        raise GmmError(f"need at least {K} points for K={K}, got {len(x)}")
    return _fit_rows(x[None], [seed], range(K, K + 1), max_iter, tol)[0]


def select_k_aic(x, K_max: int = 6, seed: int = 0) -> GmmModel:
    """Fit K = 1..min(K_max, |x|) and return the minimum-AIC model (ties:
    smaller K)."""
    x = np.asarray(x, dtype=float)
    if len(x) < 1:
        raise GmmError("select_k_aic requires at least one point")
    return _fit_rows(x[None], [seed], range(1, min(K_max, len(x)) + 1))[0]


def party_features(model: GmmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Hard-assign transactions to mixture components (sorted by mean) and
    read the components as party sizes 1..K."""
    x = np.asarray(x, dtype=float)
    prop = np.zeros(6)
    price = np.zeros(6)
    if len(x) == 0:
        return prop, price
    assign = np.argmax(gmm_log_joint(x, model.phi, model.mu, model.sigma), axis=0)
    for k in range(min(model.K, 6)):
        mask = assign == k
        prop[k] = mask.mean()
        if mask.any():
            price[k] = x[mask].mean()
    # renormalize in case K > 6 truncated some mass
    s = prop.sum()
    if s > 0:
        prop /= s
    return prop, price


def zip_feature(zip5: str) -> np.ndarray:
    """Positional digit one-hot: digit d at position i sets index 10i + d."""
    if not valid_zip5(zip5):
        raise ValueError(f"malformed zip5: {zip5!r}")
    out = np.zeros(50)
    for i, ch in enumerate(zip5):
        out[10 * i + int(ch)] = 1.0
    return out


def _amounts(index: RestaurantIndex, r: int) -> np.ndarray:
    return index.auth_amount[index.starts[r]:index.starts[r + 1]].astype(float)


def _restaurant_row(r: int, index: RestaurantIndex, model: GmmModel,
                    loyal: np.ndarray) -> np.ndarray:
    """The 162 statistics of restaurant r, its 11 blocks in `BLOCKS` order,
    given its fitted party-size mixture and every cardholder's `loyalty`."""
    rows = slice(index.starts[r], index.starts[r + 1])
    minute, amounts = index.minute[rows], _amounts(index, r)
    customers, visits = np.unique(index.cardholder[rows], return_counts=True)
    return np.concatenate([
        deciles(amounts),
        deciles(index.settle_amount[rows] - index.auth_amount[rows]),
        deciles(np.unique(minute // 60, return_counts=True)[1]),
        deciles(visits),
        deciles(loyal[customers]),
        *temporal_dists(minute),
        *party_features(model, amounts),
        zip_feature(index.zips[r]),
    ])


def extract_restaurant(rid: str, index: RestaurantIndex,
                       seed: int = 0) -> tuple[np.ndarray, GmmModel]:
    """One restaurant's feature row and its party-size mixture."""
    r = index.restaurant_ids.tolist().index(rid)
    model = select_k_aic(_amounts(index, r), K_max=GMM_KMAX, seed=seed)
    return _restaurant_row(r, index, model, loyalty(index)), model


def extract_all(index: RestaurantIndex, seed: int = 0) -> tuple[np.ndarray, list[GmmModel]]:
    """The (restaurants, STAT_DIM) feature table, rows in index order, and
    each restaurant's party-size mixture: `extract_restaurant` for every
    restaurant, each seeded by its id.

    The party-size mixtures of all restaurants with the same transaction
    count are fitted as one batch, which gives the same models as fitting
    them one at a time.
    """
    rids = index.restaurant_ids.tolist()
    by_count: dict[int, list[int]] = {}
    for r, n in enumerate(np.diff(index.starts).tolist()):
        by_count.setdefault(n, []).append(r)
    models: list = [None] * len(rids)
    for n, rs in by_count.items():
        fits = _fit_rows(np.stack([_amounts(index, r) for r in rs]),
                         [derive_seed(seed, rids[r]) for r in rs],
                         range(1, min(GMM_KMAX, n) + 1))
        for r, fit in zip(rs, fits):
            models[r] = fit
    loyal = loyalty(index)
    table = np.array([_restaurant_row(r, index, models[r], loyal) for r in range(len(rids))])
    return table.reshape(len(rids), STAT_DIM), models


def feature_header() -> list[str]:
    cols = ["restaurant_id"]
    for name, dim in STAT_BLOCK_DIMS.items():
        cols.extend(f"{name}_{i}" for i in range(dim))
    return cols


def write_features(path, ids: list[str], table: np.ndarray) -> None:
    """One line per restaurant: its id and its row of `table`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(feature_header()) + "\n")
        for rid, vec in zip(ids, table):
            fh.write(rid + "\t" + "\t".join(f"{x:.9g}" for x in vec) + "\n")


def read_features(path) -> dict[str, np.ndarray]:
    """The vectors of a file written by `write_features`, by restaurant id.
    A malformed or non-finite value is a ValueError naming file and line."""
    def row(parts):
        if len(parts) != 1 + STAT_DIM:
            raise ValueError(f"{parts[0]}: {len(parts) - 1} values, not {STAT_DIM}")
        vec = np.array([float(x) for x in parts[1:]])
        if not np.isfinite(vec).all():
            raise ValueError(f"{parts[0]}: non-finite value")
        return parts[0], vec

    return read_keyed_records(path, row, header=feature_header())
