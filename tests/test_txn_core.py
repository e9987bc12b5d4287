import random
from dataclasses import fields
from datetime import datetime

import numpy as np
import pytest
from conftest import take

from cuisine_infer.txn_core import (
    CSV_HEADER,
    TIMESTAMP_FMT,
    CuisineClass,
    IngestError,
    Transactions,
    build_index,
    parse_transactions,
    to_minute,
    write_reject_report,
    write_transactions,
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
        from cuisine_infer.synthgen import SynthConfig, corrupt_file, generate

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
