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


def extract_restaurant(rid, index, seed=0):
    """One restaurant's feature row and its party-size mixture, computed
    alone: the row `stat_features.extract_all` gives it when seeded so."""
    from cuisine_infer.stat_features import GMM_KMAX, _restaurant_row, loyalty, select_k_aic

    r = index.restaurant_ids.tolist().index(rid)
    amounts = index.auth_amount[index.starts[r]:index.starts[r + 1]].astype(float)
    model = select_k_aic(amounts, K_max=GMM_KMAX, seed=seed)
    return _restaurant_row(r, index, model, loyalty(index)), model


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
