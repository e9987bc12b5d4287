"""Shared test hooks: collect acceptance-criterion verdicts and echo one
PASS/FAIL line per criterion in the terminal summary."""

ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    """Record and print a criterion verdict, then fail the test if not ok."""
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {desc}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append((num, line))
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def take(txns, idx):
    """The rows `idx` of a transaction table, as a new table."""
    from dataclasses import fields

    return type(txns)(*(getattr(txns, f.name)[idx] for f in fields(txns)))


def make_corpus(docs, direction):
    """An `embed.Corpus` of (doc_id, [word, ...]) documents, in that order."""
    import numpy as np

    from cuisine_infer.embed import Corpus

    words = sorted({w for _, toks in docs for w in toks})
    code = {w: i for i, w in enumerate(words)}
    return Corpus(np.array([d for d, _ in docs], dtype=object), np.array(words, dtype=object),
                  np.array([code[w] for _, toks in docs for w in toks], dtype=np.int64),
                  np.cumsum([0] + [len(toks) for _, toks in docs]), direction)


def pid_logged(fn, path):
    """`fn`, wrapped to append the calling process id to `path` on each call;
    a forked worker inherits the wrapper, so the file counts its calls too."""
    import functools
    import os

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)

    return wrapper


def logged_pids(path) -> list[int]:
    return [int(line) for line in path.read_text().splitlines()]


def restaurant_row(r, index, model, loyal):
    """The 162 statistics of restaurant r, its 11 blocks in `BLOCKS` order,
    given its fitted party-size mixture and every cardholder's `loyalty`:
    each block function applied to that restaurant's rows alone."""
    import numpy as np

    from cuisine_infer.stat_features import deciles, party_features, temporal_dists, zip_feature

    rows = slice(index.starts[r], index.starts[r + 1])
    minute, amounts = index.minute[rows], index.auth_amount[rows].astype(float)
    customers, visits = np.unique(index.cardholder[rows], return_counts=True)
    return np.concatenate([
        deciles(amounts),
        deciles(index.settle_amount[rows] - index.auth_amount[rows]),
        deciles(np.unique(minute // 60, return_counts=True)[1]),
        deciles(visits),
        deciles(loyal[customers]),
        *temporal_dists(minute),
        *party_features(model, amounts),
        zip_feature([index.zips[r]])[0],
    ])


def extract_restaurant(rid, index, seed=0):
    """One restaurant's feature row and its party-size mixture, computed
    alone: the row `stat_features.extract_all` gives it when seeded so."""
    from cuisine_infer.stat_features import GMM_KMAX, loyalty, select_k_aic

    r = index.restaurant_ids.tolist().index(rid)
    amounts = index.auth_amount[index.starts[r]:index.starts[r + 1]].astype(float)
    model = select_k_aic(amounts, K_max=GMM_KMAX, seed=seed)
    return restaurant_row(r, index, model, loyalty(index)), model


def count_skipgram_pairs(corpus, window, min_count=1):
    """Closed-form (center, context) pair count with window clipping."""
    import numpy as np

    from cuisine_infer.embed import _positions

    *_, lo, hi = _positions(corpus, min_count, window)
    return int((hi - lo - 1).sum(dtype=np.int64))


def corrupt_file(src_path, dst_path, n_corrupt, seed):
    """Copy a transaction CSV while corrupting n_corrupt random data rows,
    cycling through a bad zip5, a bad timestamp, a non-integer amount and a
    negative tip. Returns the 1-based line numbers of the corrupted rows."""
    import numpy as np

    with open(src_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_data = len(lines) - 1
    if n_corrupt > n_data:
        raise ValueError("more corruptions than data rows")
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(n_data, size=n_corrupt, replace=False) + 2)
    for i, line_no in enumerate(picks):
        parts = lines[line_no - 1].split(",")
        mode = i % 4
        if mode == 0:
            parts[2] = "ABCDE"
        elif mode == 1:
            parts[3] = "not-a-time"
        elif mode == 2:
            parts[5] = "12.5x"
        else:
            parts[5], parts[6] = parts[6], str(max(0, int(parts[5]) - 1))
        lines[line_no - 1] = ",".join(parts)
    with open(dst_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return [int(p) for p in picks]


# Ways to spoil one line of a file of `id<sep>v1<sep>v2...` lines: each is
# (name, edit of that line's fields, or of the whole list of lines).
VECTOR_LINE_EDITS = {
    "wide": lambda f: f + ["1"],
    "short": lambda f: f[:-1],
    "hash": lambda f: [f[0], "2#", *f[2:]],
    "nan": lambda f: [f[0], "nan", *f[2:]],
    "inf": lambda f: [f[0], *f[1:-1], "-inf"],
    "overflow": lambda f: [f[0], "1e400", *f[2:]],
    "empty id": lambda f: ["", *f[1:]],
    "underscore": lambda f: [f[0], "1_0", *f[2:]],
    "full-width": lambda f: [f[0], "１", *f[2:]],
    "hex": lambda f: [f[0], "0x10", *f[2:]],
    "empty value": lambda f: [f[0], "", *f[2:]],
    "leading space": lambda f: [f[0], " 1", *f[2:]],
    "file separator": lambda f: [f[0], "1\x1c", *f[2:]],
    "no values": lambda f: f[:1],
}


def edit_vector_file(path, sep, kind, line_no):
    """Rewrite line `line_no` (0-based, taken modulo the line count) of a
    vector file by `VECTOR_LINE_EDITS[kind]`, or by one of the whole-line
    edits: "duplicate id", "blank line", "no separator"."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    i = line_no % len(lines)
    fields = lines[i].split(sep)
    if kind == "duplicate id":
        lines[i] = sep.join([lines[i - 1].split(sep)[0], *fields[1:]])
    elif kind == "blank line":
        lines.insert(i, "")
    elif kind == "no separator":
        lines[i] = fields[0]
    else:
        lines[i] = sep.join(VECTOR_LINE_EDITS[kind](fields))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_both_ways(read, path):
    """`read(path)`, and the same read with every line parsed on its own, as
    `txn_core.read_keyed_records` does: each as its result or the message
    of its ValueError."""
    from unittest import mock

    from cuisine_infer import txn_core

    def outcome():
        try:
            return read(path)
        except ValueError as exc:
            return str(exc)

    fast = outcome()
    with mock.patch.object(txn_core, "_loadtxt_vectors", lambda *args: None):
        return fast, outcome()


def same_vectors(a, b) -> bool:
    """Two error messages are equal, or two dicts of vectors have the same
    keys in the same order and equal float vectors."""
    import numpy as np

    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype == float and np.array_equal(a[k], b[k]) for k in a)
