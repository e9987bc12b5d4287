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
