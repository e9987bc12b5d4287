"""Columnar transaction table, CSV ingest and serialisation, and one sort
into restaurant and cardholder order."""

from __future__ import annotations

import csv
import enum
import re
import zlib
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from itertools import chain, compress, islice

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
_ASCII_SPACE = " \t\x0b\x0c\r\x1c\x1d\x1e\x1f"  # the ASCII ones but "\n"


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


def _plain_tokens(values: list[str]) -> np.ndarray:
    """Per value: non-empty and free of whitespace."""
    if "" not in values and not _WHITESPACE.search("".join(values)):
        return np.ones(len(values), dtype=bool)
    return np.array([bool(v) and not _WHITESPACE.search(v) for v in values], dtype=bool)


def _ascii_codes(values: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Which values are `width` characters long, and those values as an
    (n, width) array of character codes, a non-ASCII character read as `?`."""
    sized = np.fromiter(map(len, values), np.int64, len(values)) == width
    text = "".join(compress(values, sized)).encode("ascii", "replace")
    return sized, np.frombuffer(text, np.uint8).reshape(-1, width)


def _is_digit(codes: np.ndarray) -> np.ndarray:
    return (codes >= ord("0")) & (codes <= ord("9"))


def zip5_mask(zips: list[str]) -> np.ndarray:
    """`valid_zip5` of each value."""
    ok, codes = _ascii_codes(zips, 5)
    ok[ok] = _is_digit(codes).all(axis=1)
    return ok


# The canonical timestamp: "0" marks a digit, every other character stands for itself.
_STAMP = np.frombuffer(b"0000-00-00T00:00", np.uint8)
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _canonical_minutes(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which stamps are ASCII `YYYY-MM-DDTHH:MM` naming a minute of year 1 or
    later, and `to_minute` of each of them (0 for the others)."""
    ok, codes = _ascii_codes(stamps, len(_STAMP))
    digit = _STAMP == ord("0")
    digits = codes.astype(np.int64) - ord("0")
    good = np.where(digit, _is_digit(codes), codes == _STAMP).all(axis=1)
    year, month, day, hour, minute = (digits[:, a:b] @ _POW10[b - a - 1::-1] for a, b in (
        (0, 4), (5, 7), (8, 10), (11, 13), (14, 16)))
    months = (year - 1970) * 12 + np.clip(month - 1, 0, 11)
    first = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    length = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) - first
    good &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= length)
             & (hour <= 23) & (minute <= 59))
    out = np.zeros(len(stamps), dtype=np.int64)
    out[ok] = ((first + day - 1) * 24 + hour) * 60 + minute
    ok[ok] = good
    return out, ok


def _digit_numbers(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which values are 1 to 18 ASCII digits, and the number each of them
    spells (0 for the others)."""
    lengths = np.fromiter(map(len, values), np.int64, len(values))
    ok = (lengths >= 1) & (lengths <= 18)
    out = np.zeros(len(values), dtype=np.int64)
    if not ok.any():
        return out, ok
    text = np.frombuffer("".join(compress(values, ok)).encode("ascii", "replace"), np.uint8)
    n = lengths[ok]
    ends = np.cumsum(n)
    digit = _is_digit(text)
    place = np.repeat(ends, n) - np.arange(len(text)) - 1  # the power of ten of each character
    value = np.where(digit, text.astype(np.int64) - ord("0"), 0) * _POW10[place]
    out[ok] = np.add.reduceat(value, ends - n)
    ok[ok] = np.add.reduceat(digit, ends - n, dtype=np.int64) == n
    return out, ok


# Rows checked at a time: only one chunk's raw fields exist at once.
_CHUNK_ROWS = 1 << 9


def parse_transactions(path, strict: bool = False) -> ParseResult:
    """Read a transaction CSV file.

    In lenient mode malformed rows are collected into the reject report; in
    strict mode the first malformed row raises IngestError.

    The rows are read by `csv.reader` a chunk at a time, and the fields of a
    chunk checked a column at a time. A row that fails any of those checks,
    say an unpadded time or a non-ASCII digit, goes through `_validate_row`,
    which accepts it or names its reject reason.
    """
    width = len(CSV_HEADER)
    strings: list[list[str]] = [[], [], [], []]
    # per chunk: the minute and amounts of each row with `width` fields, and
    # whether it is accepted; the first entry, empty, stands for no rows
    parts = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, bool),)]
    rejects: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, missing header")
        if header != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}")
        line_no = 2  # of the chunk's first row, counted as csv.reader counts them
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            n_fields = np.fromiter(map(len, chunk), np.int64, len(chunk))
            sized = np.flatnonzero(n_fields == width)
            columns = [list(col) for col in zip(*compress(chunk, n_fields == width))]
            mid, name, zip5, stamp, chid, auth_raw, settle_raw = columns or [[]] * width
            minutes, ok = _canonical_minutes(stamp)
            auths, auth_ok = _digit_numbers(auth_raw)
            settles, settle_ok = _digit_numbers(settle_raw)
            ok &= (_plain_tokens(mid) & _plain_tokens(chid) & zip5_mask(zip5) & auth_ok
                   & settle_ok & (settles >= auths))
            retry = n_fields > 0  # a blank line is skipped
            retry[sized[ok]] = False
            for j in np.flatnonzero(retry).tolist():
                result = _validate_row(chunk[j])
                if isinstance(result, str):
                    if strict:
                        raise IngestError(f"{path}:{line_no + j}: {result}")
                    rejects.append((line_no + j, result))
                else:
                    k = np.searchsorted(sized, j)
                    minutes[k], auths[k], settles[k] = result[3], result[5], result[6]
                    ok[k] = True
            line_no += len(chunk)
            parts.append((minutes, auths, settles, ok))
            for column, values in zip(strings, (mid, name, zip5, chid)):
                column += values
    minute, auth, settle, clean = map(np.concatenate, zip(*parts))
    mid, name, zip5, chid = (np.array(column, dtype=object)[clean] for column in strings)
    return ParseResult(Transactions(mid, name, zip5, minute[clean], chid, auth[clean],
                                    settle[clean]), rejects)


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


def read_keyed_vectors(path, parse, sep: str = "\t", header: list[str] | None = None,
                       dim: int | None = None) -> dict[str, np.ndarray]:
    """`read_keyed_records` of a file whose lines are an id and `sep`-separated
    floats, where `parse` is the per-line reader that checks a line and
    returns its id and vector: the rows of one float matrix by id, in file
    order. `dim`, when given, is the number of floats a line must have.

    The floats of all lines are read by one `np.loadtxt`. The file is read
    again line by line with `parse`, which names the bad line, only when
    that read fails or a line or the result is not one `parse` would take."""
    table = _loadtxt_vectors(path, sep, header, dim)
    return table if table is not None else read_keyed_records(path, parse, sep, header)


def _loadtxt_vectors(path, sep: str, header: list[str] | None, dim: int | None):
    """The fast path of `read_keyed_vectors`, or None where it does not apply."""
    # loadtxt strips whitespace that float() refuses, such as "\x1c"
    other_space = _ASCII_SPACE.replace(sep, "")
    ids: list[str] = []

    def fields(lines):
        for line in lines:
            rid, _, rest = line.partition(sep)
            if (not rid or not rest or not rest.isascii()
                    or any(space in rest for space in other_space)):
                raise ValueError(line)
            ids.append(rid)
            yield rest

    try:
        with open(path, "r", encoding="utf-8") as fh:
            if header is not None and fh.readline().rstrip("\n").split(sep) != header:
                return None
            lines = filter(None, (line.rstrip("\n") for line in fh))
            first = next(lines, None)
            if first is None:
                return {}
            table = np.loadtxt(fields(chain([first], lines)), delimiter=sep, comments=None,
                               ndmin=2)
    except ValueError:  # a bad line, or not UTF-8
        return None
    if (len(set(ids)) < len(ids) or table.shape != (len(ids), dim or table.shape[1])
            or not np.isfinite(table).all()):
        return None
    return dict(zip(ids, table))


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
