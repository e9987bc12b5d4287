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
