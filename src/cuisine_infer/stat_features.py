"""Statistical feature blocks extracted from per-restaurant transaction history.

Eleven blocks: five decile vectors (price, tip, hourly capacity, revisits,
loyalty), three temporal distributions, GMM-based party-size proportions and
prices, and a positional zip-digit one-hot. Total dimensionality 162: a
restaurant's statistics are one row, and `BLOCKS` gives each block's columns.

Every block function works on segments: with `starts`, segment s of a
per-row array is rows starts[s]:starts[s + 1], and the result has one row
per segment; without, all the rows are one segment and the result is that
segment's row. `extract_all` computes each block for every restaurant at
once, a restaurant being a segment of the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .txn_core import (RestaurantIndex, derive_seed, read_keyed_vectors, write_vectors,
                       zip5_mask)

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


def _bounds(n_rows: int, starts) -> np.ndarray:
    """The segment bounds `starts`, or one segment of all n_rows rows."""
    return np.array([0, n_rows]) if starts is None else np.asarray(starts, dtype=np.int64)


def _owners(bounds: np.ndarray) -> np.ndarray:
    """The segment of each row."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


_DECILE_P = np.arange(1, 10) / 10.0


def deciles(values, starts=None) -> np.ndarray:
    """Nine deciles of each segment by linear interpolation on its order
    statistics: an (S, 9) array, or nine values without `starts`.

    For p in {0.1..0.9}: h = (n-1)p, result = v[floor(h)] + frac(h) *
    (v[floor(h)+1] - v[floor(h)]), v the segment's n values sorted. An empty
    segment yields nine zeros.
    """
    v = np.asarray(values, dtype=float)
    bounds = _bounds(len(v), starts)
    v = v[np.lexsort((v, _owners(bounds)))]
    n = np.diff(bounds)
    full = n > 0
    last = (n[full] - 1)[:, None]
    h = last * _DECILE_P
    lo = np.floor(h).astype(np.int64)
    hi = np.minimum(lo + 1, last)
    first = bounds[:-1][full][:, None]
    out = np.zeros((len(n), 9))
    out[full] = v[first + lo] + (h - lo) * (v[first + hi] - v[first + lo])
    return out if starts is not None else out[0]


def _histograms(owner: np.ndarray, bins: np.ndarray, width: int, n_segments: int) -> np.ndarray:
    """(segments, width) counts of `bins` per segment, each row normalized
    to sum to 1 unless it is all zeros."""
    counts = np.bincount(owner * width + bins, minlength=n_segments * width)
    counts = counts.reshape(n_segments, width).astype(float)
    total = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, total, out=counts, where=total > 0)


def temporal_dists(minute, starts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized day-of-week, weekday-hour, and weekend-hour histograms of
    each segment of times in minutes since 1970-01-01 (a Thursday): (S, 7),
    (S, 24) and (S, 24) arrays, or one row each without `starts`.

    Saturday/Sunday count as weekend. Each histogram sums to 1, or is
    all-zero when the segment has no qualifying transactions.
    """
    minute = np.asarray(minute, dtype=np.int64)
    bounds = _bounds(len(minute), starts)
    owner, S = _owners(bounds), len(bounds) - 1
    day = (minute // 1440 + 3) % 7  # Monday = 0
    hour = minute // 60 % 24
    weekend = day >= 5
    dists = (_histograms(owner, day, 7, S),
             _histograms(owner[~weekend], hour[~weekend], 24, S),
             _histograms(owner[weekend], hour[weekend], 24, S))
    return dists if starts is not None else tuple(d[0] for d in dists)


def _visit_pairs(index: RestaurantIndex) -> tuple[np.ndarray, np.ndarray]:
    """The (restaurant, cardholder) pairs with a visit, as restaurant code
    times the number of cardholders plus cardholder code, ascending, and
    each pair's number of visits."""
    owner = _owners(index.starts)
    return np.unique(owner * len(index.cardholder_ids) + index.cardholder, return_counts=True)


def loyalty(index: RestaurantIndex) -> np.ndarray:
    """Per cardholder code, the number of distinct restaurants visited."""
    return _pair_loyalty(_visit_pairs(index)[0], len(index.cardholder_ids))


def _pair_loyalty(pairs: np.ndarray, n_cards: int) -> np.ndarray:
    """`loyalty` from the pairs `_visit_pairs` returns."""
    return np.bincount(pairs % n_cards, minlength=n_cards)


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
    return _log_joint(x[..., None, :], np.log(phi)[..., :, None], _log_norm(sigma), mu, sigma)


def _log_norm(sigma: np.ndarray) -> np.ndarray:
    """-log(sqrt(2 pi) sigma): a Gaussian's log density at its mean."""
    return -0.5 * np.log(2 * np.pi) - np.log(sigma)


def _log_joint(x, log_phi, log_norm, mu, sigma) -> np.ndarray:
    """log phi + log N(x | mu, sigma), elementwise over the broadcast arguments,
    given log phi and `_log_norm(sigma)`."""
    out = x - mu
    out /= sigma
    np.square(out, out=out)
    out *= 0.5
    np.subtract(log_norm, out, out=out)
    out += log_phi
    return out


def _logsumexp(log_p: np.ndarray) -> np.ndarray:
    """log(sum(exp(log_p))) over the component axis (-2), shifted by its maximum."""
    m = log_p.max(axis=-2)
    return m + np.log(np.exp(log_p - m[..., None, :]).sum(axis=-2))


def _kmeanspp_centres(x: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """K k-means++ centres in draw order. The first J of them are the centres
    a J-centre draw from the same RNG state would give."""
    centers = [x[int(rng.integers(0, len(x)))]]
    d2 = (x - centers[0]) ** 2  # squared distance to the nearest centre
    for _ in range(K - 1):
        total = d2.sum()
        if total <= 0:
            centers.append(x[int(rng.integers(0, len(x)))])
        else:
            centers.append(x[int(np.searchsorted(np.cumsum(d2), rng.random() * total))])
        d2 = np.minimum(d2, (x - centers[-1]) ** 2)
    return np.asarray(centers, dtype=float)


def _run_starts(n: np.ndarray) -> np.ndarray:
    """Where each run of `n` (B,) consecutive points begins."""
    return np.concatenate(([0], np.cumsum(n[:-1])))


def _runs_log_joint(x: np.ndarray, n: np.ndarray, phi: np.ndarray, mu: np.ndarray,
                    sigma: np.ndarray) -> np.ndarray:
    """(K, N) array of log phi_k + log N(x_i | mu_k, sigma_k), where `x` (N,)
    holds runs of `n` (B,) points and run b's parameters are column b of the
    (K, B) `phi`, `mu` and `sigma`."""
    params = np.concatenate((np.log(phi), _log_norm(sigma), mu, sigma))
    return _log_joint(x, *np.repeat(params, n, axis=1).reshape(4, len(phi), -1))


def _em(x: np.ndarray, n: np.ndarray, mu: np.ndarray, sd: np.ndarray, floor: np.ndarray,
        max_iter: int, tol: float) -> list[GmmModel]:
    """EM fits of a K-component 1-D mixture to each of B runs of points, in lockstep.

    `x` (N,) holds the runs end to end and `n` (B,) their lengths. `mu`
    (K, B) holds each run's sorted initial means, `sd` and `floor` (B,) its
    initial sigma and sigma floor. A run's parameters are repeated over its
    points, and each per-run sum is a segment sum over its own points, so a
    run's fit does not depend on the other runs in the batch. A run stops
    once its log-likelihood gains less than `tol` after the first iteration,
    or after `max_iter`, and its points leave the batch. Raises GmmError when
    any running run's log-likelihood decreases.
    """
    K, B = mu.shape
    phi = np.full((K, B), 1.0 / K)
    sigma = np.repeat(sd[None], K, axis=0)
    out_phi, out_mu, out_sigma = np.empty((K, B)), np.empty((K, B)), np.empty((K, B))
    n_iter = np.full(B, max_iter)
    runs, m, xs, x2, fl = np.arange(B), n, x, x ** 2, floor
    starts = _run_starts(m)
    prev = np.full(B, -np.inf)
    for it in range(1, max_iter + 1):
        # E step
        log_p = _runs_log_joint(xs, m, phi, mu, sigma)
        log_total = _logsumexp(log_p)
        ll = np.add.reduceat(log_total, starts)
        worse = ll + 1e-9 < prev
        if worse.any():
            b = np.argmax(worse)
            raise GmmError(f"log-likelihood decreased: {prev[b]} -> {ll[b]}")
        # M step: the responsibilities and their products with x and x^2,
        # summed per run in one call
        weighted = np.empty((3, K, len(xs)))
        resp = np.exp(np.subtract(log_p, log_total, out=log_p), out=weighted[0])
        np.multiply(resp, xs, out=weighted[1])
        np.multiply(resp, x2, out=weighted[2])
        nk, sum_x, sum_x2 = np.add.reduceat(
            weighted.reshape(3 * K, -1), starts, axis=1).reshape(3, K, -1)
        nk = np.maximum(nk, 1e-12)
        phi = nk / m
        mu = sum_x / nk
        var = sum_x2 / nk - mu ** 2
        sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), fl)
        stop = (ll - prev < tol) & (it > 1)
        prev = ll
        if stop.any():
            done = runs[stop]
            out_phi[:, done], out_mu[:, done], out_sigma[:, done] = (
                phi[:, stop], mu[:, stop], sigma[:, stop])
            n_iter[done] = it
            keep = ~stop
            points = np.repeat(keep, m)
            xs, x2 = xs[points], x2[points]
            runs, m, fl, prev = (a[keep] for a in (runs, m, fl, prev))
            phi, mu, sigma = (a[:, keep] for a in (phi, mu, sigma))
            starts = _run_starts(m)
            if not len(runs):
                break
    out_phi[:, runs], out_mu[:, runs], out_sigma[:, runs] = phi, mu, sigma
    capped = np.zeros(B, dtype=int)
    capped[runs] = 1

    order = np.argsort(out_mu, axis=0)
    phi, mu, sigma = (np.take_along_axis(a, order, axis=0)
                      for a in (out_phi, out_mu, out_sigma))
    loglik = np.add.reduceat(_logsumexp(_runs_log_joint(x, n, phi, mu, sigma)), _run_starts(n))
    aic = 2.0 * (3 * K - 1) - 2.0 * loglik
    phi, mu, sigma = (np.ascontiguousarray(a.T) for a in (phi, mu, sigma))
    return [GmmModel(phi[b], mu[b], sigma[b], float(loglik[b]), float(aic[b]),
                     int(n_iter[b]), int(capped[b])) for b in range(B)]


def _fit_rows(x: np.ndarray, n, seeds, Ks: range, max_iter: int = 200,
              tol: float = 1e-6) -> list[GmmModel]:
    """For each run of `n` (B,) consecutive points of `x` (N,), the
    minimum-AIC EM fit over the mixture sizes in `Ks` (ascending; ties: the
    smaller K) that the run has at least as many points as. Every run must
    have at least Ks[0] points.

    One EM per K fits every run long enough for it. Each run draws its
    k-means++ centres once, for the largest K it is fitted with, from an RNG
    seeded with its seed; a K-component fit starts from the first K of them,
    sorted. sigma starts at std(x), floored at max(1, 1e-3 * std(x)).
    """
    n = np.asarray(n, dtype=np.int64)
    B, kmax = len(n), Ks[-1]
    centres, sd, floor = np.zeros((B, kmax)), np.empty(B), np.empty(B)
    for b, (run, seed) in enumerate(zip(np.split(x, np.cumsum(n)[:-1]), seeds)):
        std = float(np.std(run))
        k = min(kmax, len(run))
        centres[b, :k] = _kmeanspp_centres(run, k, np.random.default_rng(seed))
        floor[b] = max(1.0, 1e-3 * std)
        sd[b] = max(std, floor[b])
    best: list = [None] * B
    hits = np.zeros(B, dtype=int)
    for K in Ks:
        long_enough = n >= K
        fitted = np.flatnonzero(long_enough)
        if not len(fitted):
            break
        fits = _em(x[np.repeat(long_enough, n)], n[fitted],
                   np.sort(centres[fitted, :K], axis=1).T, sd[fitted], floor[fitted],
                   max_iter, tol)
        for b, fit in zip(fitted, fits):
            hits[b] += fit.iter_cap_hits
            if best[b] is None or fit.aic < best[b].aic:
                best[b] = fit
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
    return _fit_rows(x, [len(x)], [seed], range(K, K + 1), max_iter, tol)[0]


def select_k_aic(x, K_max: int = 6, seed: int = 0) -> GmmModel:
    """Fit K = 1..min(K_max, |x|) and return the minimum-AIC model (ties:
    smaller K): a batch of one."""
    x = np.asarray(x, dtype=float)
    if len(x) < 1:
        raise GmmError("select_k_aic requires at least one point")
    return _fit_rows(x, [len(x)], [seed], range(1, K_max + 1))[0]


def party_features(models, x, starts=None) -> tuple[np.ndarray, np.ndarray]:
    """Hard-assign each point of a segment to the component of the segment's
    mixture (components sorted by mean) under which its log joint is
    highest, and read the components as party sizes 1..6: per segment, the
    share of its points and their mean in each. Two (S, 6) arrays, given one
    model per segment, or two rows given one model and no `starts`.

    The sums behind the means do not depend on the order of the points
    when they are integer-valued, as amounts in cents are.
    """
    x = np.asarray(x, dtype=float)
    bounds = _bounds(len(x), starts)
    if starts is None:
        models = [models]
    owner, n = _owners(bounds), np.diff(bounds)
    K = np.array([m.K for m in models], dtype=np.int64)
    width = int(K.max(initial=1))
    real = np.arange(width) < K[:, None]
    phi, mu, sigma = np.ones((len(K), width)), np.zeros((len(K), width)), np.ones((len(K), width))
    for a, name in ((phi, "phi"), (mu, "mu"), (sigma, "sigma")):
        a[real] = np.concatenate([getattr(m, name) for m in models]) if models else []
    log_phi = np.where(real, np.log(phi), -np.inf)
    log_norm = _log_norm(sigma)
    # one component at a time: (width, points) log joints, each point scored
    # against its own segment's parameters
    log_p = np.empty((width, len(x)))
    for k in range(width):
        log_p[k] = _log_joint(x, log_phi[owner, k], log_norm[owner, k], mu[owner, k],
                              sigma[owner, k])
    slot = owner * width + np.argmax(log_p, axis=0)
    del log_p
    counts = np.bincount(slot, minlength=len(K) * width).reshape(-1, width)[:, :6]
    sums = np.bincount(slot, x, minlength=len(K) * width).reshape(-1, width)[:, :6]
    prop, price = np.zeros((len(K), 6)), np.zeros((len(K), 6))
    cols = counts.shape[1]
    np.divide(counts, n[:, None], out=prop[:, :cols], where=n[:, None] > 0)
    np.divide(sums, counts, out=price[:, :cols], where=counts > 0)
    # renormalize in case K > 6 truncated some mass
    total = prop.sum(axis=1, keepdims=True)
    np.divide(prop, total, out=prop, where=total > 0)
    return (prop, price) if starts is not None else (prop[0], price[0])


def zip_feature(zips) -> np.ndarray:
    """Positional digit one-hot of each zip5, one row per zip: digit d at
    position i sets column 10i + d."""
    zips = list(zips)
    valid = zip5_mask(zips)
    if not valid.all():
        raise ValueError(f"malformed zip5: {zips[np.argmin(valid)]!r}")
    digits = np.frombuffer("".join(zips).encode("ascii"), np.uint8).reshape(-1, 5) - ord("0")
    out = np.zeros((len(zips), 50))
    out[np.arange(len(zips))[:, None], 10 * np.arange(5) + digits] = 1.0
    return out


def extract_all(index: RestaurantIndex, seed: int = 0) -> tuple[np.ndarray, list[GmmModel]]:
    """The (restaurants, STAT_DIM) feature table, rows in index order, and
    each restaurant's party-size mixture: `select_k_aic` of its amounts, seeded
    by its id.

    The party-size mixtures are fitted with one EM per K over the whole
    amount column, each restaurant's amounts one run of it. Each block is
    computed for every restaurant at once, a restaurant being a segment.
    """
    rids = index.restaurant_ids.tolist()
    amounts = index.auth_amount.astype(float)
    models = _fit_rows(amounts, np.diff(index.starts),
                       [derive_seed(seed, rid) for rid in rids], range(1, GMM_KMAX + 1))
    # transactions per clock hour: a restaurant's rows are in time order, so
    # each hour it was visited in is one run of rows
    hour, owner = index.minute // 60, _owners(index.starts)
    new_hour = np.ones(len(hour), dtype=bool)
    new_hour[1:] = (hour[1:] != hour[:-1]) | (owner[1:] != owner[:-1])
    runs = np.flatnonzero(new_hour)
    # visits per (restaurant, cardholder) pair, ascending by restaurant
    n_cards = len(index.cardholder_ids)
    pairs, visits = _visit_pairs(index)
    pair_starts = np.searchsorted(pairs, np.arange(len(rids) + 1) * n_cards)
    table = np.concatenate([
        deciles(amounts, index.starts),
        deciles(index.settle_amount - index.auth_amount, index.starts),
        deciles(np.diff(np.append(runs, len(hour))), np.searchsorted(runs, index.starts)),
        deciles(visits, pair_starts),
        deciles(_pair_loyalty(pairs, n_cards)[pairs % n_cards], pair_starts),
        *temporal_dists(index.minute, index.starts),
        *party_features(models, amounts, index.starts),
        zip_feature(index.zips),
    ], axis=1)
    return table, models


def feature_header() -> list[str]:
    cols = ["restaurant_id"]
    for name, dim in STAT_BLOCK_DIMS.items():
        cols.extend(f"{name}_{i}" for i in range(dim))
    return cols


def write_features(path, ids: list[str], table: np.ndarray) -> None:
    """One line per restaurant: its id and its row of `table`."""
    write_vectors(path, zip(ids, table), "%.9g", header=feature_header())


def read_features(path) -> dict[str, np.ndarray]:
    """The vectors of a file written by `write_features`, by restaurant id;
    a bad line is a ValueError naming it (see `read_keyed_vectors`)."""
    return read_keyed_vectors(path, header=feature_header(), dim=STAT_DIM)
