"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one PASS/FAIL line (echoed again in the terminal summary)
and fails the suite if its criterion does not hold. Criteria 7-9 share one
full-scale pipeline run (500 restaurants, 5000 customers, 90 days, seed 7);
criterion 10 reruns the CLI pipeline at a reduced scale.
"""

import functools
import math
import time
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_corpus, record_criterion
from cuisine_infer import embed, eval_harness, nnet
from cuisine_infer.btm import BtmConfig, btm_fit, coherence_sweep, umass_coherence
from cuisine_infer.cli import main
from cuisine_infer.embed import EmbedConfig
from cuisine_infer.nnet import NetworkSpec, TrainConfig, backward, cross_entropy, forward, init_params
from cuisine_infer.pipeline import load_config, load_dataset, run_pipeline, stage_seed
from cuisine_infer.stat_features import deciles, gmm_fit, select_k_aic
from cuisine_infer.txn_core import CuisineClass
from cuisine_infer.weak_label import (
    BootstrapThresholds,
    LabelSet,
    apply_labels,
    bootstrap_expand,
    load_taxonomy,
    tokenize_name,
)

# Fixed RNG seed shared by all network variants in the architecture-ordering
# comparison (criterion 8).
COMPARISON_SEED = 7


def criterion(num: int, desc: str):
    """Wrap a test returning (ok, detail) so every criterion emits a verdict
    line even when the body raises."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - verdict must still print
                record_criterion(num, desc, False, f"error: {type(exc).__name__}: {exc}")
                raise
            record_criterion(num, desc, ok, detail)

        return wrapper

    return deco


# --- criterion 1 -----------------------------------------------------------

@criterion(1, "decile vectors match the brute-force sort+interpolate oracle")
def test_criterion_01_deciles_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    exact = True
    for i in range(1000):
        n = int(rng.integers(1, 501))
        if i % 2:
            v = rng.normal(0.0, 100.0, n)
        else:
            v = rng.integers(0, 1000, n).astype(float)
        got = deciles(v)
        s = sorted(float(x) for x in v)
        for j in range(9):
            h = (n - 1) * ((j + 1) / 10.0)
            lo = math.floor(h)
            hi = min(lo + 1, n - 1)
            want = s[lo] + (h - lo) * (s[hi] - s[lo])
            if got[j] != want:
                exact = False
    elapsed = time.perf_counter() - t0
    return exact and elapsed < 5.0, f"1000 vectors exact={exact}, {elapsed:.2f}s"


# --- criterion 2 -----------------------------------------------------------

@criterion(2, "GMM/EM log-likelihood monotone; bimodal recovery; AIC selects K=2")
def test_criterion_02_gmm():
    t0 = time.perf_counter()
    # External monotonicity probe: refit the same seeded problem with growing
    # iteration caps; the final log-likelihood must never decrease. (gmm_fit
    # additionally raises if any within-fit iteration decreases.)
    monotone = True
    n_fits = 0
    for d in range(20):
        r = np.random.default_rng(500 + d)
        k_true = int(r.integers(1, 4))
        x = np.concatenate([
            r.normal(r.uniform(0, 5000), r.uniform(10, 300), int(r.integers(50, 200)))
            for _ in range(k_true)
        ])
        prev = -np.inf
        for cap in (1, 2, 3, 5, 10):
            model = gmm_fit(x, K=2, seed=d, max_iter=cap)
            n_fits += 1
            if model.loglik + 1e-9 < prev:
                monotone = False
            prev = model.loglik

    r = np.random.default_rng(77)
    x = np.concatenate([r.normal(1000, 50, 500), r.normal(3000, 50, 500)])
    model = gmm_fit(x, K=2, seed=0)
    recover = (np.all(np.abs(model.mu - np.array([1000.0, 3000.0])) <= 25.0)
               and np.all(np.abs(model.phi - 0.5) <= 0.05))

    hits = 0
    for t in range(100):
        r = np.random.default_rng(1000 + t)
        x = np.concatenate([r.normal(1000, 50, 500), r.normal(3000, 50, 500)])
        hits += select_k_aic(x, K_max=6, seed=t).K == 2
    elapsed = time.perf_counter() - t0
    ok = monotone and n_fits == 100 and recover and hits >= 90 and elapsed < 30.0
    return ok, (f"{n_fits} fits monotone={monotone}, recovery={recover}, "
                f"AIC K=2 in {hits}/100, {elapsed:.1f}s")


# --- criterion 3 -----------------------------------------------------------

@criterion(3, "residual network analytic gradients match central finite differences")
def test_criterion_03_gradient_check():
    rng = np.random.default_rng(4)
    n = 3
    feats = {"alpha": rng.normal(size=(n, 3)), "beta": rng.normal(size=(n, 2))}
    labels = rng.integers(0, 3, n)
    spec = NetworkSpec(branches=(("alpha", 3), ("beta", 2)), branch_hidden=4,
                       trunk_hidden=(5, 4), n_classes=3, variant="residual_deep")
    params = init_params(spec, 5)
    onehot = np.zeros((n, 3))
    onehot[np.arange(n), labels] = 1.0
    _, cache = forward(params, spec, feats)
    grads = backward(params, spec, cache, onehot)
    eps = 1e-6
    worst = 0.0
    for key in sorted(grads):
        flat = params[key].ravel()
        analytic = grads[key].ravel()
        numeric = np.empty_like(analytic)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            l1 = cross_entropy(forward(params, spec, feats)[0], onehot)
            flat[j] = orig - eps
            l2 = cross_entropy(forward(params, spec, feats)[0], onehot)
            flat[j] = orig
            numeric[j] = (l1 - l2) / (2 * eps)
        denom = max(np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
    return worst < 1e-4, f"max relative error {worst:.2e} over every coordinate"


# --- criterion 4 -----------------------------------------------------------

def _brute_force_bootstrap(labels, names, token_sets, th):
    """Independent per-word recount of the three bootstrap gates."""
    vocab = set().union(*token_sets.values())
    out = set()
    n_names = len(names)
    for w in vocab:
        with_w = [rid for rid in names if w in token_sets[rid]]
        labeled = [labels.get(rid) for rid in with_w]
        labeled = [l for l in labeled if l is not None]
        if not labeled:
            continue
        counts = Counter(labeled)
        maj, maj_count = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        freq = len(with_w) / n_names
        prec = maj_count / len(labeled)
        sig = len(labeled) / max(1, len(with_w) - len(labeled))
        if freq >= th.theta_f and prec >= th.theta_p and sig >= th.theta_s:
            out.add((w, maj))
    return out


@criterion(4, "bootstrap expansion equals a brute-force recount on 10^4 names")
def test_criterion_04_bootstrap_recount():
    taxonomy = load_taxonomy()
    cuisines = list(CuisineClass)
    seed_words = {c: sorted(taxonomy.keywords[c]) for c in cuisines}
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    style = {c: [f"STYLE{c.name[:3].upper()}{letters[j]}" for j in range(3)]
             for c in cuisines}
    noise = [f"NOISE{a}{b}" for a in letters[:5] for b in letters[:4]]
    rng = np.random.default_rng(11)
    names = {}
    for i in range(10_000):
        c = cuisines[i % len(cuisines)]
        toks = []
        if rng.random() < 0.45:
            toks.append(seed_words[c][rng.integers(len(seed_words[c]))])
        if rng.random() < 0.5:
            sc = c if rng.random() < 0.85 else cuisines[int(rng.integers(10))]
            toks.append(style[sc][int(rng.integers(3))])
        toks.append(noise[int(rng.integers(len(noise)))])
        if rng.random() < 0.3:
            toks.append(noise[int(rng.integers(len(noise)))])
        rng.shuffle(toks)
        names[f"r{i:05d}"] = " ".join(toks)
    labels = apply_labels(names, taxonomy, [])
    seeds = taxonomy.all_keywords()
    token_sets = {rid: set(tokenize_name(n)) - seeds for rid, n in names.items()}

    settings = [
        BootstrapThresholds(5e-4, 0.9, 0.5),
        BootstrapThresholds(1e-4, 0.8, 0.3),
        BootstrapThresholds(2e-3, 0.9, 0.5),
        BootstrapThresholds(5e-4, 0.99, 0.5),
        BootstrapThresholds(5e-4, 0.7, 2.0),
    ]
    matches = []
    accepted_counts = []
    for th in settings:
        got = {(bw.word, bw.cuisine) for bw in bootstrap_expand(labels, names, taxonomy, th)}
        want = _brute_force_bootstrap(labels, names, token_sets, th)
        matches.append(got == want)
        accepted_counts.append(len(want))
    ok = all(matches) and max(accepted_counts) > 0
    return ok, f"5 threshold settings, accepted counts {accepted_counts}"


# --- criterion 5 -----------------------------------------------------------

def _clustered_corpus(n_clusters=10, words_per=6, docs_per=30):
    docs = []
    rng = np.random.default_rng(5)
    for c in range(n_clusters):
        words = [f"C{c}W{i}" for i in range(words_per)]
        for _ in range(docs_per):
            k = int(rng.integers(2, 4))
            docs.append(list(rng.choice(words, size=k, replace=False)))
    biterms: Counter = Counter()
    for d in docs:
        toks = sorted(d)
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                biterms[(toks[i], toks[j])] += 1
    return docs, biterms


@criterion(5, "UMass coherence oracle-exact; sweep peaks at the cluster count")
def test_criterion_05_coherence():
    # Hand-enumerated document counts for a 3-document corpus:
    # docs {P,Q,R}, {P,Q}, {Q,R} give D(PP)=2, D(QQ)=3, D(RR)=2,
    # D(PP,QQ)=2, D(QQ,RR)=2, D(PP,RR)=1.
    docs = [["PP", "QQ", "RR"], ["PP", "QQ"], ["QQ", "RR"]]
    biterms = Counter({("PP", "QQ"): 4, ("QQ", "RR"): 2, ("PP", "RR"): 1})
    model = btm_fit(biterms, BtmConfig(k=1, gibbs_iters=5, seed=0))
    words = model.top_words(0, 3)
    d = {"PP": 2, "QQ": 3, "RR": 2}
    dpair = {frozenset(("PP", "QQ")): 2, frozenset(("QQ", "RR")): 2,
             frozenset(("PP", "RR")): 1}
    expected = 0.0
    for i in range(1, 3):
        for j in range(i):
            wi, wj = words[i], words[j]
            expected += math.log((dpair[frozenset((wi, wj))] + 1) / d[wj])
    score = umass_coherence(model, docs, top_n=3)[0]
    oracle_exact = score == expected

    docs10, biterms10 = _clustered_corpus()
    rows = coherence_sweep(biterms10, docs10, base_cfg=BtmConfig(gibbs_iters=60, seed=2))
    best_k = max(rows, key=lambda r: r[1])[0]
    ok = oracle_exact and best_k in (10, 15)
    return ok, f"oracle exact={oracle_exact}, sweep argmax k={best_k}"


# --- criterion 6 -----------------------------------------------------------

def _bipartite_visits(n_rest=200, n_cust=2000, visits_per=8, p_own=0.95, seed=42):
    """Two equal communities; customers visit their own community's
    restaurants with probability p_own."""
    rng = np.random.default_rng(seed)
    rests = [f"r{i:03d}" for i in range(n_rest)]
    half = n_rest // 2
    visits = {}
    guests = {r: [] for r in rests}
    for ci in range(n_cust):
        cid = f"c{ci:04d}"
        own = rests[:half] if ci < n_cust // 2 else rests[half:]
        other = rests[half:] if ci < n_cust // 2 else rests[:half]
        seq = []
        for _ in range(visits_per):
            pool = own if rng.random() < p_own else other
            r = pool[int(rng.integers(half))]
            seq.append(r)
            guests[r].append(cid)
        visits[cid] = seq
    return rests, half, visits, guests


def _community_margin(vectors, rests, half):
    ids = [r for r in rests if r in vectors]
    mat = np.stack([vectors[r] / np.linalg.norm(vectors[r]) for r in ids])
    sims = mat @ mat.T
    comm = np.array([int(r[1:]) < half for r in ids])
    same = comm[:, None] == comm[None, :]
    off_diag = ~np.eye(len(ids), dtype=bool)
    return float(sims[same & off_diag].mean() - sims[~same].mean())


@criterion(6, "two-community bipartite graph separates in micro and macro embeddings")
def test_criterion_06_embedding_separation():
    t0 = time.perf_counter()
    rests, half, visits, guests = _bipartite_visits()
    micro_corpus = make_corpus(list(visits.items()), "customer-docs")
    macro_corpus = make_corpus(list(guests.items()), "restaurant-docs")
    micro = embed.sgns_train(micro_corpus, EmbedConfig(
        dim=32, window=5, negative=5, epochs=5, learning_rate=0.05,
        min_count=1, seed=3))
    macro = embed.pv_train(macro_corpus, EmbedConfig(
        dim=32, window=2, negative=5, epochs=30, learning_rate=0.1,
        min_count=1, seed=3))
    m_micro = _community_margin(micro.vectors, rests, half)
    m_macro = _community_margin(macro.vectors, rests, half)
    elapsed = time.perf_counter() - t0
    ok = m_micro >= 0.2 and m_macro >= 0.2 and elapsed < 120.0
    return ok, f"micro margin {m_micro:.3f}, macro margin {m_macro:.3f}, {elapsed:.1f}s"


# --- criteria 7-9 share one full-scale pipeline run ------------------------

@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "out"
    cfg = load_config(None, {"out_dir": str(out)})
    t0 = time.perf_counter()
    run_pipeline(cfg)
    return cfg, out, time.perf_counter() - t0


def _read_metrics(path):
    metrics = {}
    for line in path.read_text().splitlines():
        parts = line.split("\t")
        if parts[0] in ("accuracy", "balanced_accuracy") or parts[0].startswith("top"):
            metrics[parts[0]] = float(parts[1])
    return metrics


@criterion(7, "end-to-end synthetic recovery meets coverage/precision/accuracy gates")
def test_criterion_07_end_to_end(e2e):
    cfg, out, elapsed = e2e
    truth = LabelSet.read_tsv(out / "truth_labels.tsv")
    weak = LabelSet.read_tsv(out / "labels.tsv")
    coverage = len(weak) / len(truth)
    correct = sum(1 for rid, (c, _src) in weak.items() if truth.get(rid) == c)
    precision = correct / len(weak)
    metrics = _read_metrics(out / "metrics.tsv")
    truth_metrics = _read_metrics(out / "metrics_truth.tsv")
    ok = (coverage >= 0.30
          and precision >= 0.95
          and metrics["accuracy"] >= 0.85
          and metrics["top1_accuracy"] <= metrics["top2_accuracy"] <= metrics["top3_accuracy"]
          and metrics["top3_accuracy"] >= 0.95
          and truth_metrics["accuracy"] >= 0.80
          and elapsed < 600.0)
    return ok, (f"coverage {coverage:.2f}, precision {precision:.3f}, "
                f"test acc {metrics['accuracy']:.3f}, "
                f"truth acc {truth_metrics['accuracy']:.3f}, "
                f"top3 {metrics['top3_accuracy']:.3f}, {elapsed:.0f}s")


@criterion(8, "accuracy ordering residual_deep >= deep >= logistic with 0.05 margin")
def test_criterion_08_architecture_ordering(e2e):
    cfg, _out, _elapsed = e2e
    dataset = load_dataset(cfg)
    labeled = dataset.subset(np.flatnonzero(dataset.labels >= 0))
    train_idx, test_idx = eval_harness.stratified_split(
        labeled.labels, cfg["train"]["train_frac"], seed=stage_seed(cfg, "split"))
    train_ds, test_ds = nnet.standardize(
        labeled.subset(train_idx), labeled.subset(test_idx))
    accs = {}
    for variant in ("residual_deep", "deep", "logistic"):
        spec = NetworkSpec(branches=dataset.spec_branches(),
                           branch_hidden=cfg["train"]["branch_hidden"],
                           trunk_hidden=tuple(cfg["train"]["trunk_hidden"]),
                           variant=variant)
        tcfg = TrainConfig(batch_size=cfg["train"]["batch_size"],
                           learning_rate=cfg["train"]["learning_rate"],
                           epochs=cfg["train"]["epochs"], seed=COMPARISON_SEED)
        params, _curve = nnet.train(train_ds, spec, tcfg)
        accs[variant] = nnet.accuracy(params, spec, test_ds)
    r, d, l = accs["residual_deep"], accs["deep"], accs["logistic"]
    ok = r >= d >= l and r - l >= 0.05
    return ok, f"resid {r:.4f} >= deep {d:.4f} >= logistic {l:.4f}, margin {r - l:.4f}"


@criterion(9, "metrics bookkeeping and leave-one-block-out ablation are consistent")
def test_criterion_09_bookkeeping(e2e):
    cfg, out, _elapsed = e2e
    spec, params = nnet.load_params(out / "model.txt")
    dataset = load_dataset(cfg)
    labeled = dataset.subset(np.flatnonzero(dataset.labels >= 0))
    split = dict(line.split() for line in (out / "split.tsv").read_text().splitlines())
    train_idx = [i for i, rid in enumerate(labeled.ids) if split.get(rid) == "train"]
    test_idx = [i for i, rid in enumerate(labeled.ids) if split.get(rid) == "test"]
    raw_train, raw_test = labeled.subset(train_idx), labeled.subset(test_idx)
    train_ds, test_ds = nnet.standardize(raw_train, raw_test)

    probs = nnet.predict_proba(params, spec, test_ds)
    report = eval_harness.evaluate(probs, test_ds.labels)
    rows_ok = all(abs(row.sum() - 1.0) <= 1e-9 or not row.any()
                  for row in report.confusion)
    pred = nnet.topk_from_probs(probs, 1)[:, 0]
    raw_acc = float((pred == test_ds.labels).mean())
    acc_ok = raw_acc == report.accuracy

    # Leave-one-block-out retraining at a reduced epoch budget.
    ab_cfg = TrainConfig(batch_size=cfg["train"]["batch_size"],
                         learning_rate=cfg["train"]["learning_rate"],
                         epochs=40, seed=COMPARISON_SEED)
    rows = eval_harness.ablation(raw_train, raw_test, spec, ab_cfg)
    base_name, base_acc, base_delta = rows[0]
    full_params, _curve = nnet.train(train_ds, spec, ab_cfg)
    base_ok = (base_name == "none" and base_delta == 0.0
               and base_acc == nnet.accuracy(full_params, spec, test_ds))
    removal = rows[1:]
    count_ok = (len(removal) == 14
                and {name for name, _a, _d in removal} == set(dataset.features))
    delta_ok = all(delta == acc - base_acc for _n, acc, delta in removal)
    ok = rows_ok and acc_ok and base_ok and count_ok and delta_ok
    return ok, (f"rows_sum={rows_ok}, acc bit-exact={acc_ok}, "
                f"baseline bit-exact={base_ok}, 14 ablation rows={count_ok}")


# --- criterion 10 ----------------------------------------------------------

@criterion(10, "pipeline rerun with an identical config is byte-identical")
def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "out"
    args = ["pipeline", "--out-dir", str(out), "--seed", "1",
            "--set", "synth.n_restaurants=150",
            "--set", "synth.n_customers=750",
            "--set", "synth.days=14",
            "--set", "embed.micro.dim=8", "--set", "embed.micro.window=4",
            "--set", "embed.micro.negative=4", "--set", "embed.micro.epochs=1",
            "--set", "embed.macro.dim=8", "--set", "embed.macro.window=20",
            "--set", "embed.macro.negative=4", "--set", "embed.macro.epochs=1",
            "--set", "embed.name_dim=10",
            "--set", "train.branch_hidden=8",
            "--set", "train.trunk_hidden=[16,8]",
            "--set", "train.epochs=10"]
    tracked = ["labels.tsv", "features_stat.tsv", "micro.txt", "macro.txt",
               "name_embed.txt", "metrics.tsv"]
    runner = CliRunner()
    first_run = runner.invoke(main, args)
    snapshot = {name: (out / name).read_bytes() for name in tracked}
    second_run = runner.invoke(main, args)
    identical = [name for name in tracked
                 if (out / name).read_bytes() == snapshot[name]]
    ok = (first_run.exit_code == 0 and second_run.exit_code == 0
          and len(identical) == len(tracked))
    return ok, f"{len(identical)}/{len(tracked)} artifact files byte-identical"
