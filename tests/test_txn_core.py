import random
from datetime import datetime

import pytest

from cuisine_infer.txn_core import (
    CSV_HEADER,
    CuisineClass,
    IngestError,
    Transaction,
    build_index,
    parse_transactions,
    write_reject_report,
    write_transactions,
)


def txn(mid="R1", name="Joes", zip5="12345", ts="2025-01-06T12:00",
        chid="C1", auth=1000, settle=1000):
    return Transaction(mid, name, zip5, datetime.strptime(ts, "%Y-%m-%dT%H:%M"),
                       chid, auth, settle)


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
        assert result.transactions == []
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
        (3, "yesterday", "timestamp"),
        (5, "12.5", "amount"),
        (5, "-3", "negative auth"),
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
        write_transactions(src, res.transactions[:1000])
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
        assert result.transactions == result2.transactions


def write_csv_quoted(path, rows):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows(rows)


class TestIndex:
    def test_empty(self):
        idx = build_index([])
        assert len(idx) == 0
        assert idx.cardholders == {}

    def test_sort_contract(self):
        t1 = txn(ts="2025-01-06T13:00")
        t2 = txn(ts="2025-01-06T12:00", chid="C2")
        idx = build_index([t1, t2])
        assert idx.restaurants["R1"].txns == [t2, t1]

    def test_counts_conserved(self):
        from cuisine_infer.synthgen import SynthConfig, generate

        res = generate(SynthConfig(n_restaurants=100, n_customers=500, days=15, seed=1))
        idx = build_index(res.transactions)
        total = sum(len(b.txns) for b in idx.restaurants.values())
        assert total == len(res.transactions)
        assert sum(len(v) for v in idx.cardholders.values()) == len(res.transactions)

    def test_order_invariant_under_shuffle(self):
        txns = [txn(ts=f"2025-01-{d:02d}T{h:02d}:00", chid=f"C{i%5}", auth=100 + i)
                for i, (d, h) in enumerate((d, h) for d in range(6, 12) for h in range(10, 20))]
        idx1 = build_index(txns)
        shuffled = txns.copy()
        random.Random(9).shuffle(shuffled)
        idx2 = build_index(shuffled)
        assert idx1.restaurants["R1"].txns == idx2.restaurants["R1"].txns
        assert list(idx1.cardholders) == list(idx2.cardholders)


def test_cuisine_class_codes():
    assert [c.value for c in CuisineClass] == list(range(10))
    assert CuisineClass.from_name("Bar") is CuisineClass.Bar
    with pytest.raises(ValueError):
        CuisineClass.from_name("Klingon")
