import random
import re
from dataclasses import fields
from datetime import date, datetime

import numpy as np
import pytest
from conftest import corrupt_file, take
from hypothesis import given, settings
from hypothesis import strategies as st

from cuisine_infer.txn_core import (
    CSV_HEADER,
    TIMESTAMP_FMT,
    CuisineClass,
    IngestError,
    ParseResult,
    Transactions,
    _canonical_minutes,
    _validate_row,
    build_index,
    parse_transactions,
    read_records,
    text_lines,
    to_minute,
    write_records,
    write_reject_report,
    write_transactions,
    zip5_mask,
)


def txn(mid="R1", name="Joes", zip5="12345", ts="2025-01-06T12:00",
        chid="C1", auth=1000, settle=1000):
    return (mid, name, zip5, to_minute(datetime.strptime(ts, TIMESTAMP_FMT)), chid, auth, settle)


def same_fields(a, b) -> bool:
    """Two tables (or two indexes) hold equal arrays."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


GOOD_ROW = ["R1", "Joes Place", "12345", "2025-01-06T12:00", "C1", "1000", "1200"]


class TestParse:
    def test_three_wellformed_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [GOOD_ROW] * 3)
        result = parse_transactions(p)
        assert len(result.transactions) == 3
        assert result.rejects == []

    def test_negative_tip_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        bad = GOOD_ROW.copy()
        bad[5], bad[6] = "1200", "1000"
        write_csv(p, [bad])
        result = parse_transactions(p)
        assert len(result.transactions) == 0
        assert result.rejects == [(2, "negative tip")]

    def test_strict_mode_aborts(self, tmp_path):
        p = tmp_path / "t.csv"
        bad = GOOD_ROW.copy()
        bad[2] = "123"
        write_csv(p, [GOOD_ROW, bad])
        with pytest.raises(IngestError):
            parse_transactions(p, strict=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_transactions(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(IngestError):
            parse_transactions(p)

    @pytest.mark.parametrize("field,value,reason_part", [
        (2, "ABCDE", "zip5"),
        (2, "1234\u00b2", "zip5"),   # a digit, but not an ASCII one
        (3, "yesterday", "timestamp"),
        (5, "12.5", "amount"),
        (5, "-3", "negative auth"),
        (0, "R 000001", "whitespace in merchant_id"),
        (0, "R000001\u00a0", "whitespace in merchant_id"),
        (4, "C\t1", "whitespace in cardholder_id"),
    ])
    def test_reject_reasons(self, tmp_path, field, value, reason_part):
        p = tmp_path / "t.csv"
        bad = GOOD_ROW.copy()
        bad[field] = value
        write_csv(p, [bad])
        result = parse_transactions(p)
        assert len(result.rejects) == 1
        assert reason_part in result.rejects[0][1]

    def test_planted_corruption_report(self, tmp_path):
        from cuisine_infer.synthgen import SynthConfig, generate

        res = generate(SynthConfig(n_restaurants=40, n_customers=300, days=20, seed=3))
        assert len(res.transactions) >= 1000
        src = tmp_path / "clean.csv"
        write_transactions(src, take(res.transactions, slice(1000)))
        dst = tmp_path / "dirty.csv"
        planted = corrupt_file(src, dst, 10, seed=5)
        result = parse_transactions(dst)
        assert len(result.transactions) == 990
        assert [line for line, _ in result.rejects] == planted
        report = tmp_path / "rejects.txt"
        write_reject_report(report, result.rejects)
        lines = report.read_text().splitlines()
        assert len(lines) == 10
        assert all("\t" in line for line in lines)


class TestRoundTrip:
    def test_ingest_serialize_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [GOOD_ROW, ["R2", "Cafe, The", "99999", "2025-02-01T23:59", "C9", "50", "50"]]
        write_csv_quoted(p, rows)
        result = parse_transactions(p)
        p2 = tmp_path / "t2.csv"
        write_transactions(p2, result.transactions)
        result2 = parse_transactions(p2)
        assert same_fields(result.transactions, result2.transactions)
        assert result.transactions.merchant_name.tolist() == ["Joes Place", "Cafe, The"]
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("sep, header, text", [
        ("\t", ["id", "n"], "id\tn\na b\t1\nc\t\n"),
        (" ", None, "a\t1 2\nc \n"),
        (" ", ["id", "n"], "id n\na\t1 2\nc \n"),
    ], ids=["tab-header", "space", "space-header"])
    def test_records_round_trip(self, tmp_path, sep, header, text):
        """write_records writes one `sep`-joined line per record after the
        header line, and read_records gives the records back."""
        records = [("a b", "1"), ("c", "")] if sep == "\t" else [("a\t1", "2"), ("c", "")]
        p = tmp_path / "records.txt"
        write_records(p, records, sep=sep, header=header)
        assert p.read_text(encoding="utf-8") == text
        assert read_records(p, tuple, sep=sep, header=header) == records

    def test_unpadded_time_parses_and_writes_padded(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [GOOD_ROW[:3] + ["2025-1-6T9:5"] + GOOD_ROW[4:]])
        result = parse_transactions(p)
        assert result.transactions.minute.tolist() == [txn(ts="2025-01-06T09:05")[3]]
        write_transactions(p, result.transactions)
        assert p.read_text().splitlines()[1].split(",")[3] == "2025-01-06T09:05"


def write_csv_quoted(path, rows):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows(rows)


class TestIndex:
    def test_empty(self):
        idx = build_index(Transactions.from_rows([]))
        assert len(idx) == 0
        assert len(idx.cardholder_ids) == 0
        assert idx.starts.tolist() == idx.card_starts.tolist() == [0]

    def test_sort_contract(self):
        t1 = txn(ts="2025-01-06T13:00")
        t2 = txn(ts="2025-01-06T12:00", chid="C2")
        t3 = txn(mid="R0", ts="2025-01-06T12:00", name="First", zip5="54321")
        idx = build_index(Transactions.from_rows([t1, t2, t3, txn(mid="R0", name="Later")]))
        assert idx.restaurant_ids.tolist() == ["R0", "R1"]
        assert idx.names.tolist() == ["First", "Joes"]
        assert idx.zips.tolist() == ["54321", "12345"]
        assert idx.starts.tolist() == [0, 2, 4]
        assert idx.minute[2:].tolist() == [t2[3], t1[3]]
        assert idx.cardholder_ids[idx.cardholder[2:]].tolist() == ["C2", "C1"]
        # C1: R0 twice at 12:00, then R1 at 13:00; C2: R1
        assert idx.cardholder_ids.tolist() == ["C1", "C2"]
        assert idx.restaurant_ids[idx.merchants].tolist() == ["R0", "R0", "R1", "R1"]
        assert idx.card_starts.tolist() == [0, 3, 4]

    def test_ties_broken_by_the_remaining_keys(self):
        at_noon = [txn(chid="C2", auth=5, settle=5), txn(auth=4, settle=5),
                   txn(auth=3, settle=8), txn(auth=3, settle=4),
                   txn(mid="R2", chid="C5", auth=3, settle=3),
                   txn(mid="R1", chid="C5", auth=3, settle=9),
                   txn(mid="R3", chid="C5", auth=1, settle=1)]
        idx = build_index(Transactions.from_rows(at_noon))
        r1 = slice(idx.starts[0], idx.starts[1])
        # restaurant order: cardholder, then auth, then settle
        assert list(zip(idx.cardholder_ids[idx.cardholder[r1]], idx.auth_amount[r1].tolist(),
                        idx.settle_amount[r1].tolist())) == [
            ("C1", 3, 4), ("C1", 3, 8), ("C1", 4, 5), ("C2", 5, 5), ("C5", 3, 9)]
        # cardholder order: auth, then merchant, then settle
        c5 = idx.merchants[idx.card_starts[2]:idx.card_starts[3]]
        assert idx.restaurant_ids[c5].tolist() == ["R3", "R1", "R2"]

    def test_counts_conserved(self):
        from cuisine_infer.synthgen import SynthConfig, generate

        res = generate(SynthConfig(n_restaurants=100, n_customers=500, days=15, seed=1))
        idx = build_index(res.transactions)
        n = len(res.transactions)
        assert idx.starts[-1] == idx.card_starts[-1] == len(idx.minute) == n
        assert np.bincount(idx.merchants, minlength=len(idx)).tolist() == \
            np.diff(idx.starts).tolist()
        assert (np.diff(idx.starts) > 0).all() and (np.diff(idx.card_starts) > 0).all()

    def test_order_invariant_under_shuffle(self):
        txns = [txn(ts=f"2025-01-{d:02d}T{h:02d}:00", chid=f"C{i%5}", auth=100 + i % 3,
                    mid=f"R{i % 4}")
                for i, (d, h) in enumerate((d, h) for d in range(6, 12) for h in range(10, 20))]
        idx1 = build_index(Transactions.from_rows(txns))
        shuffled = txns.copy()
        random.Random(9).shuffle(shuffled)
        idx2 = build_index(Transactions.from_rows(shuffled))
        assert same_fields(idx1, idx2)


def test_cuisine_class_codes():
    assert [c.value for c in CuisineClass] == list(range(10))
    assert CuisineClass.from_name("Bar") is CuisineClass.Bar
    with pytest.raises(ValueError):
        CuisineClass.from_name("Klingon")


def _reference_parse(path, strict=False) -> ParseResult:
    """The per-row reader: every row through `_validate_row`, in file order."""
    import csv

    rows, rejects = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == CSV_HEADER
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            result = _validate_row(row, len(row) == len(CSV_HEADER) and zip5_mask([row[2]])[0])
            if isinstance(result, tuple):
                rows.append(result)
            elif strict:
                raise IngestError(f"{path}:{line_no}: {result}")
            else:
                rejects.append((line_no, result))
    return ParseResult(Transactions.from_rows(rows), rejects)


def _full_width(text: str) -> str:
    return "".join(chr(ord(c) + 0xFEE0) if c.isdigit() else c for c in text)


_IDS = st.sampled_from(["R1", "R2", "r10", "", "R 3", "R 4", "Ｒ5", "C1", "C\t2"])
_NAMES = st.sampled_from(["Joes", "Cafe, The", 'Say "hi"', "", "Café", " x "])
_ZIPS = st.sampled_from(["12345", "90210", "00000", "1234", "123456", "ABCDE", "1234²",
                         _full_width("12345"), " 1234"])
_STAMPS = st.one_of(
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59)).map(
        lambda ts: ts.strftime("%Y-%m-%dT%H:%M") if ts.year >= 1000 else
        f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}T{ts.hour:02d}:{ts.minute:02d}"),
    st.sampled_from(["2025-1-6T9:5", _full_width("2025-01-06T12:00"),
                     _full_width("2025") + "-01-06T12:00", "0000-01-06T12:00",
                     "2025-02-30T10:00", "2024-02-29T10:00", "2025-01-06T24:00",
                     "2025-01-06T12:60", "2025-13-01T00:00", "2025-00-10T00:00",
                     "2025-01-00T00:00", "2025-01-06t12:00", " 2025-01-06T12:00",
                     "2025-01-06 12:00", "", "yesterday"]))
_AMOUNTS = st.one_of(
    st.integers(0, 10**18).map(str),
    st.sampled_from(["١٢٣", "1_000", "+5", "-3", " 7", "007", "", "12.5",
                     "1" + "0" * 18, _full_width("42"), "0x10", "9" * 20, str(2**63),
                     str(2**63 - 1), "-" + "9" * 20]))
_ROW = st.tuples(_IDS, _NAMES, _ZIPS, _STAMPS, _IDS, _AMOUNTS, _AMOUNTS).map(list)


@given(st.lists(st.one_of(_ROW, _ROW.map(lambda r: r[:-1]), _ROW.map(lambda r: r + ["x"]),
                          _ROW.map(lambda r: r[:1]), st.just([])), max_size=25),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_equals_the_per_row_reader(tmp_path_factory, rows, quote_all):
    """parse_transactions gives the table and rejects of the `_validate_row`
    loop, and in strict mode the same first error: on rows mixing valid
    values, every reject reason, forms only `_validate_row` accepts
    (unpadded times, full-width years), forms int() and numpy's int64 both
    read (non-ASCII digits, `1_000`, `+5`), amounts beyond int64,
    field-count errors and blank lines, written plainly or with every field
    quoted, read in one chunk or in chunks of a few rows."""
    import csv
    from unittest import mock

    from cuisine_infer import txn_core

    path = tmp_path_factory.mktemp("parse") / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    want = _reference_parse(path)
    try:
        _reference_parse(path, strict=True)
        error = None
    except IngestError as exc:
        error = str(exc)
    for rows_per_chunk in (txn_core._CHUNK_ROWS, 3):
        with mock.patch.object(txn_core, "_CHUNK_ROWS", rows_per_chunk):
            got = parse_transactions(path)
            assert got.rejects == want.rejects
            for f in fields(Transactions):
                a, b = getattr(got.transactions, f.name), getattr(want.transactions, f.name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name
            if error is None:
                parse_transactions(path, strict=True)
            else:
                with pytest.raises(IngestError, match=re.escape(error)):
                    parse_transactions(path, strict=True)


@pytest.mark.parametrize("stamp, auth, settle, minute_or_reason", [
    ("2025-01-06T09:05", "1000", "1200", "2025-01-06T09:05"),
    ("2025-1-6T9:5", "1000", "1200", "2025-01-06T09:05"),
    (_full_width("2025") + "-01-06T09:05", "1000", "1200", "2025-01-06T09:05"),
    (_full_width("2025-01-06T09:05"), "1000", "1200",
     f"bad timestamp '{_full_width('2025-01-06T09:05')}'"),
    ("0001-01-01T00:00", "1000", "1200", "0001-01-01T00:00"),
    ("0000-01-06T09:05", "1000", "1200", "bad timestamp '0000-01-06T09:05'"),
    ("2025-02-29T09:05", "1000", "1200", "bad timestamp '2025-02-29T09:05'"),
    ("2025-01-06T09:05", "١٢٣", "1_000", "2025-01-06T09:05"),
    ("2025-01-06T09:05", "+5", "0007", "2025-01-06T09:05"),
    ("2025-01-06T09:05", "5", "4", "negative tip"),
    ("2025-01-06T09:05", "9" * 20, "9" * 20, "amount out of range"),
    ("2025-01-06T09:05", "1000", str(2**63), "amount out of range"),
    ("2025-01-06T09:05", str(2**63 - 1), str(2**63 - 1), "2025-01-06T09:05"),
    ("2025-01-06T09:05", "-" + "9" * 20, "1200", "negative auth_amount"),
])
def test_forms_outside_the_column_checks(tmp_path, stamp, auth, settle, minute_or_reason):
    """A row in a form at the edge of the column checks is accepted or
    rejected as `_validate_row` says: strptime reads a full-width year and
    unpadded fields but no year 0, int() reads any decimal digits, `_` and a
    sign, and an amount must fit in int64."""
    p = tmp_path / "t.csv"
    write_csv(p, [GOOD_ROW, GOOD_ROW[:3] + [stamp, "C1", auth, settle]])
    result = parse_transactions(p)
    if minute_or_reason.startswith(("bad", "negative", "amount")):
        assert result.rejects == [(3, minute_or_reason)]
        assert len(result.transactions) == 1
    else:
        assert result.rejects == []
        assert result.transactions.minute.tolist()[1] == txn(ts=minute_or_reason)[3]
        assert result.transactions.auth_amount.tolist()[1] == int(auth)
        assert result.transactions.settle_amount.tolist()[1] == int(settle)


def _strptime_minute(stamp: str) -> int | None:
    try:
        return to_minute(datetime.strptime(stamp, TIMESTAMP_FMT))
    except ValueError:
        return None


def test_canonical_minutes_follow_strptime():
    """numpy's calendar gives `to_minute` of every day of years on each side
    of the leap-year rules, and refuses exactly the canonical stamps that
    strptime refuses: days past a month's end, hour 24, minute 60, month 0
    and 13, and year 0."""
    years = (1, 4, 100, 400, 1900, 2000, 2024, 2100, 9999)
    stamps = [f"{day.year:04d}-{day.month:02d}-{day.day:02d}T{time}"
              for year in years
              for day in map(date.fromordinal, range(date(year, 1, 1).toordinal(),
                                                     date(year, 12, 31).toordinal() + 1))
              for time in ("00:00", "23:59")]
    minutes, ok = _canonical_minutes(stamps)
    assert ok.all()
    assert minutes.tolist() == [_strptime_minute(s) for s in stamps]
    odd = ([f"{year:04d}-02-29T12:00" for year in (1900, 2100, 2025, 2000, 2024)]
           + [f"2025-{month:02d}-31T12:00" for month in range(1, 13)]
           + ["2025-01-06T24:00", "2025-01-06T23:60", "2025-00-10T12:00", "2025-13-10T12:00",
              "0000-01-06T12:00", "0000-12-31T23:59", "0001-01-01T00:00"])
    minutes, ok = _canonical_minutes(odd)
    want = [_strptime_minute(s) for s in odd]
    assert ok.tolist() == [m is not None for m in want]
    assert minutes[ok].tolist() == [m for m in want if m is not None]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("text, line_no, error", [
    ("R2,Joes," + "1" * 140_000 + ",2025-01-06T12:00,C1,1,1\n", 3, "field larger than field limit"),
    ("R2,Jo\0es,12345,2025-01-06T12:00,C1,1,1\n", 3, "NUL byte"),
    ('R2,"Joes\n\0",12345,2025-01-06T12:00,C1,1,1\n', 4, "NUL byte"),
], ids=["long field", "NUL", "NUL in a quoted field's second line"])
def test_unreadable_row_is_an_ingest_error(tmp_path, strict, text, line_no, error):
    """A row csv.reader cannot read and a NUL byte raise IngestError naming
    the file and the reader's line, in lenient and strict mode alike."""
    p = tmp_path / "t.csv"
    write_csv(p, [GOOD_ROW])
    with open(p, "a", encoding="utf-8") as fh:
        fh.write(text + ",".join(GOOD_ROW) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{p}:{line_no}: {error}")):
        parse_transactions(p, strict=strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("good_rows, bad", [
    (1, b"R2,Jo\xffes,12345,2025-01-06T12:00,C1,1,1\n"),
    (2000, b"R2,Caf\xc3,12345,2025-01-06T12:00,C1,1,1\n"),
    (3, b"R2,\"Joes\r\n\xed\xa0\x80\",12345,2025-01-06T12:00,C1,1,1\n"),
], ids=["invalid start byte", "invalid continuation byte past the first read",
        "encoded surrogate on a quoted field's second line"])
def test_invalid_utf8_is_an_ingest_error(tmp_path, strict, good_rows, bad):
    """Bytes that are not UTF-8 raise IngestError naming the file and the
    line that holds them, counted as csv.reader counts lines, in lenient and
    strict mode alike."""
    p = tmp_path / "t.csv"
    write_csv(p, [GOOD_ROW] * good_rows)
    with open(p, "ab") as fh:
        fh.write(bad + ",".join(GOOD_ROW).encode() + b"\n")
    line_no = good_rows + 2 + bad.count(b"\r\n")
    with pytest.raises(IngestError, match=re.escape(f"{p}:{line_no}: not UTF-8: ")):
        parse_transactions(p, strict=strict)


@pytest.mark.parametrize("newline, lines", [
    (None, ["a\n", "b\n", "c\n", "\n", "caf\u00e9 d"]),
    ("", ["a\r\n", "b\r", "c\n", "\n", "caf\u00e9 d"]),
])
def test_text_lines_split_as_open_splits(tmp_path, newline, lines):
    p = tmp_path / "t.txt"
    p.write_bytes("a\r\nb\rc\n\ncaf\u00e9 d".encode())
    with open(p, encoding="utf-8", newline=newline) as fh:
        assert list(text_lines(p, newline=newline)) == fh.readlines() == lines


@pytest.mark.parametrize("data, error", [
    (b"ok\nx\xffy\nz\n", "2: not UTF-8: byte 0xff"),
    (b"caf\xc3\xa9\ncaf\xc3(\n", "2: not UTF-8: byte 0xc3"),
    (b"ok\r\nok\n\xed\xa0\x80\n", "3: not UTF-8: byte 0xed"),
    (b"R\x002\tBar\tseed\n", "1: NUL byte"),
    (b"ok\nok\r\0\n", "3: NUL byte"),
], ids=["invalid start byte", "invalid continuation byte", "encoded surrogate", "NUL",
        "NUL after a CR"])
def test_text_lines_name_a_bad_line(tmp_path, data, error):
    """A line holding a byte that is not UTF-8 or a NUL is a ValueError naming
    the file and the line; the lines before it are yielded."""
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    yielded = []
    with pytest.raises(ValueError, match=re.escape(f"{p}:{error}")):
        for line in text_lines(p):
            yielded.append(line)
    assert len(yielded) == int(error.split(":")[0]) - 1


def test_one_zip_check_per_chunk(tmp_path):
    """Rows that take the per-row path, here every row of a log with
    unpadded stamps, reuse their chunk's one `zip5_mask` verdict: two
    `_form_mask` calls per chunk, the zip codes' and the stamps', and the
    same table and reject reasons as the per-row reader."""
    from unittest import mock

    from cuisine_infer import txn_core

    rows = [[f"R{i % 7}", "Joes", "1234" if i % 5 == 0 else "12345", "2025-1-6T9:5",
             f"C{i}", "1000", "1200"] for i in range(2 * txn_core._CHUNK_ROWS + 1)]
    p = tmp_path / "t.csv"
    write_csv(p, rows)
    with mock.patch.object(txn_core, "_form_mask", wraps=txn_core._form_mask) as form_mask:
        got = parse_transactions(p)
    assert form_mask.call_count == 2 * 3
    want = _reference_parse(p)
    assert got.rejects == want.rejects and len(got.rejects) == len(rows[::5])
    for f in fields(Transactions):
        assert getattr(got.transactions, f.name).tolist() == \
            getattr(want.transactions, f.name).tolist(), f.name
