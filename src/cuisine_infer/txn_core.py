"""Transaction data model, CSV ingestion, and merchant/cardholder indexing."""

from __future__ import annotations

import csv
import enum
import zlib
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

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


@dataclass(frozen=True, slots=True)
class Transaction:
    merchant_id: str
    merchant_name: str
    zip5: str
    timestamp: datetime
    cardholder_id: str
    auth_amount: int      # integer cents
    settle_amount: int    # integer cents; settle - auth is the tip

    def to_row(self) -> list[str]:
        return [
            self.merchant_id,
            self.merchant_name,
            self.zip5,
            self.timestamp.strftime(TIMESTAMP_FMT),
            self.cardholder_id,
            str(self.auth_amount),
            str(self.settle_amount),
        ]


def _validate_row(row: list[str]) -> Transaction | str:
    """Turn a CSV row into a Transaction, or return a rejection reason."""
    if len(row) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(row)}"
    mid, name, zip5, ts_raw, chid, auth_raw, settle_raw = row
    if not mid:
        return "empty merchant_id"
    if not chid:
        return "empty cardholder_id"
    if len(zip5) != 5 or not zip5.isdigit():
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
    return Transaction(mid, name, zip5, ts, chid, auth, settle)


@dataclass
class ParseResult:
    transactions: list[Transaction]
    rejects: list[tuple[int, str]]  # (1-based line number, reason)


def parse_transactions(path, strict: bool = False) -> ParseResult:
    """Read a transaction CSV file.

    In lenient mode malformed rows are collected into the reject report; in
    strict mode the first malformed row raises IngestError.
    """
    txns: list[Transaction] = []
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
            if isinstance(result, Transaction):
                txns.append(result)
            else:
                if strict:
                    raise IngestError(f"{path}:{line_no}: {result}")
                rejects.append((line_no, result))
    return ParseResult(txns, rejects)


def merchant_names(txns: Iterable[Transaction]) -> dict[str, str]:
    """Merchant id -> name, taking the name of each merchant's first transaction."""
    names: dict[str, str] = {}
    for t in txns:
        names.setdefault(t.merchant_id, t.merchant_name)
    return names


def derive_seed(seed: int, name: str) -> int:
    """Seed of the named sub-stream under `seed`, independent of other names."""
    return (seed << 32) ^ zlib.crc32(name.encode())


def write_transactions(path, txns: Iterable[Transaction]) -> None:
    """Write transactions in the canonical CSV form."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for t in txns:
            writer.writerow(t.to_row())


def write_reject_report(path, rejects: list[tuple[int, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line_no, reason in rejects:
            fh.write(f"{line_no}\t{reason}\n")


def _txn_sort_key(t: Transaction):
    return (t.timestamp, t.cardholder_id, t.auth_amount, t.merchant_id, t.settle_amount)


@dataclass
class RestaurantBucket:
    name: str
    zip5: str
    txns: list[Transaction]


@dataclass
class RestaurantIndex:
    restaurants: dict[str, RestaurantBucket]
    cardholders: dict[str, list[Transaction]]  # chronological per cardholder

    def __len__(self) -> int:
        return len(self.restaurants)


def build_index(txns: Iterable[Transaction]) -> RestaurantIndex:
    """Group transactions by merchant (and dually by cardholder).

    Per-bucket ordering is total and independent of input order: sorted by
    timestamp, ties broken by cardholder_id then auth_amount.
    """
    restaurants: dict[str, RestaurantBucket] = {}
    cardholders: dict[str, list[Transaction]] = {}
    for t in txns:
        bucket = restaurants.get(t.merchant_id)
        if bucket is None:
            restaurants[t.merchant_id] = bucket = RestaurantBucket(t.merchant_name, t.zip5, [])
        bucket.txns.append(t)
        cardholders.setdefault(t.cardholder_id, []).append(t)
    for bucket in restaurants.values():
        bucket.txns.sort(key=_txn_sort_key)
    for lst in cardholders.values():
        lst.sort(key=_txn_sort_key)
    restaurants_sorted = dict(sorted(restaurants.items()))
    cardholders_sorted = dict(sorted(cardholders.items()))
    return RestaurantIndex(restaurants_sorted, cardholders_sorted)

