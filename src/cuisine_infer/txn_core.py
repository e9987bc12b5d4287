"""Columnar transaction table, CSV ingest and serialisation, and one sort
into restaurant and cardholder order."""

from __future__ import annotations

import csv
import enum
import re
import zlib
from dataclasses import dataclass, fields
from datetime import datetime, timedelta

import numpy as np

CSV_HEADER = [
    "merchant_id",
    "merchant_name",
    "zip5",
    "timestamp",
    "cardholder_id",
    "auth_amount_cents",
    "settle_amount_cents",
]

TIMESTAMP_FMT = "%Y-%m-%dT%H:%M"
_WHITESPACE = re.compile(r"\s")  # what str.isspace() is true for


class CuisineClass(enum.IntEnum):
    """The ten cuisine classes, with stable integer codes."""

    LatinAmerican = 0
    European = 1
    MMA = 2
    SouthAsian = 3
    SouthEastAsian = 4
    EastAsian = 5
    GrillSteak = 6
    Fastfood = 7
    Bar = 8
    Dessert = 9

    @classmethod
    def from_name(cls, name: str) -> "CuisineClass":
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown cuisine class: {name!r}") from None


N_CLASSES = len(CuisineClass)


class IngestError(Exception):
    """A transaction file could not be ingested."""


@dataclass(frozen=True)
class Transactions:
    """A transaction log as columns, one entry per row.

    The string columns are object arrays of str, the others int64.
    """

    merchant_id: np.ndarray
    merchant_name: np.ndarray
    zip5: np.ndarray
    minute: np.ndarray         # minutes since 1970-01-01T00:00
    cardholder_id: np.ndarray
    auth_amount: np.ndarray    # integer cents
    settle_amount: np.ndarray  # integer cents; settle - auth is the tip

    def __len__(self) -> int:
        return len(self.minute)

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "Transactions":
        """A table from tuples of the seven fields in CSV order."""
        columns = zip(*rows) if rows else [()] * len(CSV_HEADER)
        return cls(*(np.array(col, dtype=np.int64 if f.name in _INT_COLUMNS else object)
                     for f, col in zip(fields(cls), columns)))


_INT_COLUMNS = {"minute", "auth_amount", "settle_amount"}


def to_minute(ts: datetime) -> int:
    """Minutes since 1970-01-01T00:00."""
    return (ts - datetime(1970, 1, 1)) // timedelta(minutes=1)


def valid_zip5(zip5: str) -> bool:
    """Five ASCII digits."""
    return len(zip5) == 5 and zip5.isascii() and zip5.isdigit()


def _validate_row(row: list[str]) -> tuple | str:
    """Turn a CSV row into a table row, or return a rejection reason."""
    if len(row) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(row)}"
    mid, name, zip5, ts_raw, chid, auth_raw, settle_raw = row
    for field, value in (("merchant_id", mid), ("cardholder_id", chid)):
        if not value:
            return f"empty {field}"
        if _WHITESPACE.search(value):  # ids are space-separated tokens downstream
            return f"whitespace in {field}"
    if not valid_zip5(zip5):
        return f"bad zip5 {zip5!r}"
    try:
        ts = datetime.strptime(ts_raw, TIMESTAMP_FMT)
    except ValueError:
        return f"bad timestamp {ts_raw!r}"
    try:
        auth = int(auth_raw)
        settle = int(settle_raw)
    except ValueError:
        return "non-integer amount"
    if auth < 0:
        return "negative auth_amount"
    if settle < 0:
        return "negative settle_amount"
    if settle < auth:
        return "negative tip"
    return mid, name, zip5, to_minute(ts), chid, auth, settle


@dataclass
class ParseResult:
    transactions: Transactions
    rejects: list[tuple[int, str]]  # (1-based line number, reason)


def parse_transactions(path, strict: bool = False) -> ParseResult:
    """Read a transaction CSV file.

    In lenient mode malformed rows are collected into the reject report; in
    strict mode the first malformed row raises IngestError.
    """
    rows: list[tuple] = []
    rejects: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, missing header")
        if header != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            result = _validate_row(row)
            if isinstance(result, tuple):
                rows.append(result)
            else:
                if strict:
                    raise IngestError(f"{path}:{line_no}: {result}")
                rejects.append((line_no, result))
    return ParseResult(Transactions.from_rows(rows), rejects)


def merchant_names(txns: Transactions) -> dict[str, str]:
    """Merchant id -> the name on its first row, in order of first appearance."""
    _, first = np.unique(txns.merchant_id, return_index=True)
    first.sort()
    return dict(zip(txns.merchant_id[first].tolist(), txns.merchant_name[first].tolist()))


def derive_seed(seed: int, name: str) -> int:
    """Seed of the named sub-stream under `seed`, independent of other names."""
    return (seed << 32) ^ zlib.crc32(name.encode())


def write_transactions(path, txns: Transactions) -> None:
    """Write transactions in the canonical CSV form."""
    times = np.datetime_as_string(txns.minute.astype("datetime64[m]"), unit="m")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(txns.merchant_id, txns.merchant_name, txns.zip5, times.tolist(),
                             txns.cardholder_id, txns.auth_amount.tolist(),
                             txns.settle_amount.tolist()))


def _numbered_records(path, parse, sep: str, header: list[str] | None):
    """(line number, parse(fields)) of each non-empty line of a
    `sep`-separated text file, after a first line of fields equal to
    `header` when one is given. A ValueError from `parse`, or another first
    line, is raised naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None and fh.readline().rstrip("\n").split(sep) != header:
            raise ValueError(f"{path}:1: bad header: expected the {len(header)} fields "
                             f"{header[0]} .. {header[-1]}")
        for line_no, line in enumerate(fh, start=1 if header is None else 2):
            if line := line.rstrip("\n"):
                try:
                    record = parse(line.split(sep))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                yield line_no, record


def read_records(path, parse, sep: str = "\t", header: list[str] | None = None) -> list:
    """parse(fields) of each non-empty line; see _numbered_records."""
    return [record for _, record in _numbered_records(path, parse, sep, header)]


def read_keyed_records(path, parse, sep: str = "\t",
                       header: list[str] | None = None) -> dict:
    """A dict of the (key, value) pairs `parse` returns, one per non-empty
    line; see _numbered_records. A key on two lines is a ValueError naming
    the file and the second line."""
    out, first_line = {}, {}
    for line_no, (key, value) in _numbered_records(path, parse, sep, header):
        if key in out:
            raise ValueError(f"{path}:{line_no}: {key} already listed on line {first_line[key]}")
        out[key], first_line[key] = value, line_no
    return out


def write_records(path, records, sep: str = "\t", header: list[str] | None = None) -> None:
    """One line of `sep`-joined string fields per record, after a line of
    `header` when one is given: the files `read_records` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        fh.writelines(sep.join(record) + "\n" for record in records)


def write_reject_report(path, rejects: list[tuple[int, str]]) -> None:
    write_records(path, ((str(line_no), reason) for line_no, reason in rejects))


@dataclass
class RestaurantIndex:
    """A transaction table grouped by merchant and, dually, by cardholder.

    Restaurants and cardholders are numbered in the sorted order of their
    ids. Restaurant r owns entries starts[r]:starts[r + 1] of the per-row
    arrays, ordered by time, then cardholder, auth and settle amount.
    Cardholder c visited merchants[card_starts[c]:card_starts[c + 1]], in
    order of time, then auth amount, merchant and settle amount.
    """

    restaurant_ids: np.ndarray   # per restaurant
    names: np.ndarray            # per restaurant, from its first row in the file
    zips: np.ndarray             # per restaurant, from its first row in the file
    starts: np.ndarray
    minute: np.ndarray           # per row, in restaurant order
    auth_amount: np.ndarray
    settle_amount: np.ndarray
    cardholder: np.ndarray       # per row, in restaurant order: cardholder code
    cardholder_ids: np.ndarray   # per cardholder
    card_starts: np.ndarray
    merchants: np.ndarray        # per row, in cardholder order: restaurant code

    def __len__(self) -> int:
        return len(self.restaurant_ids)


def _starts(codes: np.ndarray, n: int) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=n))))


def build_index(txns: Transactions) -> RestaurantIndex:
    """Group transactions by merchant and by cardholder. Both orders are
    independent of the order of the rows."""
    rids, first, m = np.unique(txns.merchant_id, return_index=True, return_inverse=True)
    cids, c = np.unique(txns.cardholder_id, return_inverse=True)
    # lexsort sorts by its last key first and keeps ties in file order.
    by_r = np.lexsort((txns.settle_amount, txns.auth_amount, c, txns.minute, m))
    by_c = np.lexsort((txns.settle_amount, m, txns.auth_amount, txns.minute, c))
    return RestaurantIndex(
        rids, txns.merchant_name[first], txns.zip5[first], _starts(m, len(rids)),
        txns.minute[by_r], txns.auth_amount[by_r], txns.settle_amount[by_r], c[by_r],
        cids, _starts(c, len(cids)), m[by_c])
