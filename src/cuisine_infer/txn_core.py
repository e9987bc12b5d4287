"""The one line reader of every text input, the columnar transaction table,
CSV ingest and serialisation, and one sort into restaurant and cardholder
order."""

from __future__ import annotations

import csv
import enum
import re
import zlib
from collections import Counter
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


def _validate_row(row: list[str], zip_ok: bool) -> tuple | str:
    """Turn a CSV row into a table row, or return a rejection reason.
    `zip_ok` is `zip5_mask`'s verdict on the row's zip5 field, which the
    caller takes for a whole column at once."""
    if len(row) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(row)}"
    mid, name, zip5, ts_raw, chid, auth_raw, settle_raw = row
    for field, value in (("merchant_id", mid), ("cardholder_id", chid)):
        if not value:
            return f"empty {field}"
        if _WHITESPACE.search(value):  # ids are space-separated tokens downstream
            return f"whitespace in {field}"
    if not zip_ok:
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
    if max(auth, settle) >= 2**63:  # beyond int64
        return "amount out of range"
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


def _form_mask(values: list[str], form: bytes) -> np.ndarray:
    """Per value: ASCII in the shape of `form`, where "0" stands for any digit
    and every other character for itself."""
    pattern = np.frombuffer(form, np.uint8)
    ok = np.fromiter(map(len, values), np.int64, len(values)) == len(form)
    text = "".join(compress(values, ok)).encode("ascii", "replace")
    codes = np.frombuffer(text, np.uint8).reshape(-1, len(form))
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    ok[ok] = np.where(pattern == ord("0"), digit, codes == pattern).all(axis=1)
    return ok


def zip5_mask(zips: list[str]) -> np.ndarray:
    """Per value: five ASCII digits."""
    return _form_mask(zips, b"00000")


def _parse(values: list[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """`np.array(values, dtype)` viewed as int64, and which values numpy reads (the
    others read 0): one conversion, then one per value only if numpy refuses one."""
    try:
        return np.array(values, dtype).view(np.int64), np.ones(len(values), dtype=bool)
    except (ValueError, OverflowError):
        pass
    out, ok = np.zeros(len(values), dtype), np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        try:
            out[i], ok[i] = value, True
        except (ValueError, OverflowError):
            pass
    return out.view(np.int64), ok


def _canonical_minutes(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Which stamps are ASCII `YYYY-MM-DDTHH:MM` naming a minute of year 1 or
    later, and `to_minute` of each of them (0 for the others)."""
    ok = _form_mask(stamps, b"0000-00-00T00:00")
    out = np.zeros(len(stamps), dtype=np.int64)
    minutes, parsed = _parse(list(compress(stamps, ok)), "datetime64[m]")
    out[ok] = minutes
    # numpy reads year 0, which strptime refuses
    ok[ok] = parsed & (minutes >= to_minute(datetime(1, 1, 1)))
    return out, ok


# Rows checked at a time: only one chunk's raw fields exist at once.
_CHUNK_ROWS = 1 << 9


def text_lines(path, newline: str | None = None):
    """The lines of the UTF-8 text file `path`, split as `open` splits them
    with `newline`: the one decoder of every input file. A line holding a
    byte that is not UTF-8 or a NUL byte is a ValueError naming the file and
    line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            # surrogateescape reads a byte that is not UTF-8 as a lone surrogate
            if not line.isascii() and (byte := re.search("[\udc80-\udcff]", line)):
                raise ValueError(f"{path}:{line_no}: not UTF-8: byte "
                                 f"0x{ord(byte[0]) - 0xdc00:02x}")
            if "\0" in line:
                raise ValueError(f"{path}:{line_no}: NUL byte")
            yield line


def _row_chunks(path):
    """The rows after the header, `_CHUNK_ROWS` at a time. A wrong header, a
    line `text_lines` refuses and a row `csv.reader` cannot read (a field
    over `csv.field_size_limit()`) are an IngestError naming the file, and
    the line when there is one."""
    reader = csv.reader(text_lines(path, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file, missing header")
        if header != CSV_HEADER:
            raise IngestError(f"{path}: bad header {header!r}")
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            yield chunk
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
    except ValueError as exc:  # from text_lines, naming the line
        raise IngestError(str(exc)) from None


def parse_transactions(path, strict: bool = False) -> ParseResult:
    """Read a transaction CSV file.

    In lenient mode malformed rows are collected into the reject report; in
    strict mode the first malformed row raises IngestError. A file that
    `_row_chunks` refuses raises IngestError in both modes.

    The fields of each chunk of rows are checked a column at a time, the
    amounts and canonical timestamps read by numpy. A row that fails any of
    those checks, say an unpadded time or an amount numpy refuses, goes
    through `_validate_row`, which accepts it or names its reject reason.
    """
    width = len(CSV_HEADER)
    strings: list[list[str]] = [[], [], [], []]
    # per chunk: the minute and amounts of each row with `width` fields, and
    # whether it is accepted; the first entry, empty, stands for no rows
    parts = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, bool),)]
    rejects: list[tuple[int, str]] = []
    line_no = 2  # of the chunk's first row, counted as csv.reader counts them
    for chunk in _row_chunks(path):
        n_fields = np.fromiter(map(len, chunk), np.int64, len(chunk))
        sized = np.flatnonzero(n_fields == width)
        columns = [list(col) for col in zip(*compress(chunk, n_fields == width))]
        mid, name, zip5, stamp, chid, auth_raw, settle_raw = columns or [[]] * width
        minutes, ok = _canonical_minutes(stamp)
        auths, auth_ok = _parse(auth_raw, np.int64)
        settles, settle_ok = _parse(settle_raw, np.int64)
        zip_ok = np.zeros(len(chunk), dtype=bool)  # per row of the chunk
        zip_ok[sized] = zip5_mask(zip5)
        ok &= (_plain_tokens(mid) & _plain_tokens(chid) & zip_ok[sized] & auth_ok
               & settle_ok & (auths >= 0) & (settles >= auths))
        retry = n_fields > 0  # a blank line is skipped
        retry[sized[ok]] = False
        for j in np.flatnonzero(retry).tolist():
            result = _validate_row(chunk[j], zip_ok[j])
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
    lines = text_lines(path)
    if header is not None and next(lines, "").rstrip("\n").split(sep) != header:
        raise ValueError(f"{path}:1: bad header: expected the {len(header)} fields "
                         f"{header[0]} .. {header[-1]}")
    for line_no, line in enumerate(lines, start=1 if header is None else 2):
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


def read_keyed_vectors(path, sep: str = "\t", header: list[str] | None = None,
                       dim: int | None = None) -> dict[str, np.ndarray]:
    """The rows of one float matrix by id, in file order, from a file of
    `sep`-separated lines of an id and its floats, after a first line of
    fields equal to `header` when one is given. Each line has `dim` floats,
    or as many as most lines, at least one; an empty or repeated id, another
    width, or a value float() refuses or that is not finite is a ValueError
    naming the file, the line and, when it has one, the id. One `np.loadtxt`
    reads the floats of all lines; the file is read again line by line, to
    name the bad line, only when that read fails or breaks a rule."""
    table = _loadtxt_vectors(path, sep, header, dim)
    if table is not None:
        return table
    if dim is None:  # ties go to the earlier line: a short first line is the one named
        widths = Counter(line.count(sep) for line in text_lines(path) if line.rstrip("\n"))
        dim = max(widths, key=widths.__getitem__, default=0)

    def row(fields):
        rid, values = fields[0], fields[1:]
        if not rid:
            raise ValueError("empty id")
        if len(values) != dim or not values:
            raise ValueError(f"{rid}: {len(values)} values, expected {dim or 'at least 1'}")
        try:
            vec = np.array([float(value) for value in values])
        except ValueError as exc:  # naming the value
            raise ValueError(f"{rid}: {exc}") from None
        if not np.isfinite(vec).all():
            raise ValueError(f"{rid}: non-finite value")
        return rid, vec

    return read_keyed_records(path, row, sep, header)


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

    lines = text_lines(path)
    try:
        if header is not None and next(lines, "").rstrip("\n").split(sep) != header:
            return None
        lines = filter(None, (line.rstrip("\n") for line in lines))
        first = next(lines, None)
        if first is None:
            return {}
        table = np.loadtxt(fields(chain([first], lines)), delimiter=sep, comments=None,
                           ndmin=2)
    except ValueError:  # a bad line, which the slow path names
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


def write_vectors(path, rows, fmt: str, sep: str = "\t",
                  header: list[str] | None = None) -> None:
    """One line per (id, vector) of `rows`: the id and the vector's floats,
    each formatted by `fmt`, joined by `sep`, after a line of `header` when
    one is given: the files `read_keyed_vectors` reads. One row's floats at
    a time: the whole table as Python floats would take several times its
    own size."""
    write_records(path, ((("%s" + (sep + fmt) * len(vec)) % (rid, *vec.tolist()),)
                         for rid, vec in rows), sep, header)


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
