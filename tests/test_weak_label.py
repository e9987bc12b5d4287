from collections import Counter

import pytest

from cuisine_infer.synthgen import SynthConfig, generate
from cuisine_infer.txn_core import CuisineClass
from cuisine_infer.weak_label import (
    BootstrapThresholds,
    BootstrapWord,
    LabelSet,
    Taxonomy,
    apply_labels,
    bootstrap_expand,
    label_names,
    load_taxonomy,
    read_bootstrap_report,
    seed_label,
    tokenize_name,
    write_bootstrap_report,
)


class TestTokenize:
    def test_rule_application(self):
        assert tokenize_name("Peking Wok #2, LLC") == ["PEKING", "WOK"]

    def test_empty(self):
        assert tokenize_name("") == []

    def test_diacritic_folding(self):
        assert tokenize_name("Café-Olé") == ["CAFE", "OLE"]

    def test_corporate_suffixes_and_short_tokens(self):
        assert tokenize_name("A B C Co Corp Inc Grill") == ["GRILL"]


@pytest.fixture(scope="module")
def tax():
    return load_taxonomy()


@pytest.fixture(scope="module")
def mini_tax():
    return Taxonomy({
        CuisineClass.EastAsian: {"SUSHI", "PEKING", "RAMEN"},
        CuisineClass.Fastfood: {"BURGER"},
        CuisineClass.LatinAmerican: {"TACO"},
        CuisineClass.European: {"PASTA"},
        CuisineClass.SouthAsian: {"CURRY"},
    })


class TestSeedLabel:

    def test_peking_is_east_asian(self, tax):
        cuisine, kw = seed_label("PEKING GARDEN", tax)
        assert cuisine is CuisineClass.EastAsian
        assert kw == "PEKING"

    def test_no_keyword(self, tax):
        assert seed_label("JOE'S PLACE", tax) is None

    def test_conflict_yields_none(self, tax):
        assert seed_label("TACO SUSHI HOUSE", tax) is None

    def test_monotone_on_conflict_free_corpus(self, tax):
        # adding keywords never unlabels a conflict-free name
        name = "PEKING GARDEN"
        before = seed_label(name, tax)
        bigger = Taxonomy({c: set(kw) | ({"GARDENIA"} if c is CuisineClass.EastAsian else set())
                           for c, kw in tax.keywords.items()})
        after = seed_label(name, bigger)
        assert before[0] is after[0]


def _wok_corpus():
    # 10 names; WOK in 5 (4 labeled: 3 EastAsian, 1 Fastfood; 1 unlabeled)
    names = {
        "r0": "SUSHI WOK", "r1": "PEKING WOK", "r2": "RAMEN WOK",
        "r3": "BURGER WOK", "r4": "MYSTERY WOK",
        "r5": "SUSHI HUT", "r6": "TACO TOWN", "r7": "PASTA PLACE",
        "r8": "CURRY CORNER", "r9": "NAMELESS",
    }
    labeled = LabelSet()
    labeled.add("r0", CuisineClass.EastAsian, "seed")
    labeled.add("r1", CuisineClass.EastAsian, "seed")
    labeled.add("r2", CuisineClass.EastAsian, "seed")
    labeled.add("r3", CuisineClass.Fastfood, "seed")
    labeled.add("r5", CuisineClass.EastAsian, "seed")
    labeled.add("r6", CuisineClass.LatinAmerican, "seed")
    labeled.add("r7", CuisineClass.European, "seed")
    labeled.add("r8", CuisineClass.SouthAsian, "seed")
    return names, labeled


class TestBootstrap:

    def test_wok_accepted(self, mini_tax):
        names, labeled = _wok_corpus()
        out = bootstrap_expand(labeled, names, mini_tax,
                               BootstrapThresholds(0.2, 0.7, 2.0))
        by_word = {bw.word: bw for bw in out}
        assert "WOK" in by_word
        bw = by_word["WOK"]
        assert bw.cuisine is CuisineClass.EastAsian
        assert bw.freq == pytest.approx(0.5)
        assert bw.prec == pytest.approx(0.75)
        assert bw.sig == pytest.approx(4.0)

    def test_wok_rejected_on_precision(self, mini_tax):
        names, labeled = _wok_corpus()
        out = bootstrap_expand(labeled, names, mini_tax,
                               BootstrapThresholds(0.2, 0.8, 2.0))
        assert "WOK" not in {bw.word for bw in out}

    def test_unlabeled_only_word_rejected(self, mini_tax):
        names, labeled = _wok_corpus()
        out = bootstrap_expand(labeled, names, mini_tax,
                               BootstrapThresholds(0.01, 0.1, 0.01))
        assert "NAMELESS" not in {bw.word for bw in out}

    def test_empty_labeled_raises(self, tax):
        with pytest.raises(ValueError):
            bootstrap_expand(LabelSet(), {"r": "X"}, tax, BootstrapThresholds())

    def test_brute_force_recount(self, tax):
        # independent recount on a synthetic corpus
        res = generate(SynthConfig(n_restaurants=300, n_customers=10, days=2, seed=13))
        names = res.names
        seeds = tax.all_keywords()
        labeled = apply_labels(names, tax, [])
        th = BootstrapThresholds(0.01, 0.8, 1.0)
        got = {(bw.word, bw.cuisine) for bw in bootstrap_expand(labeled, names, tax, th)}

        expected = set()
        words = {w for n in names.values() for w in tokenize_name(n)} - seeds
        for w in words:
            with_w = [rid for rid, n in names.items() if w in tokenize_name(n)]
            lab = [labeled.get(rid) for rid in with_w if labeled.get(rid) is not None]
            unlab = sum(1 for rid in with_w if labeled.get(rid) is None)
            if not lab:
                continue
            counts = Counter(lab)
            maj, maj_n = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            freq = len(with_w) / len(names)
            prec = maj_n / len(lab)
            sig = len(lab) / max(1, unlab)
            if freq >= th.theta_f and prec >= th.theta_p and sig >= th.theta_s:
                expected.add((w, maj))
        assert got == expected


class TestApplyLabels:

    def test_seed_precedence(self, mini_tax):
        names, labeled = _wok_corpus()
        boots = bootstrap_expand(labeled, names, mini_tax, BootstrapThresholds(0.2, 0.7, 2.0))
        out = apply_labels(names, mini_tax, boots)
        assert out.labels["r0"] == (CuisineClass.EastAsian, "seed")

    def test_bootstrap_only_match(self, mini_tax):
        names, labeled = _wok_corpus()
        boots = bootstrap_expand(labeled, names, mini_tax, BootstrapThresholds(0.2, 0.7, 2.0))
        out = apply_labels(names, mini_tax, boots)
        assert out.labels["r4"] == (CuisineClass.EastAsian, "bootstrap")

    def test_idempotent(self, mini_tax):
        names, labeled = _wok_corpus()
        boots = bootstrap_expand(labeled, names, mini_tax, BootstrapThresholds(0.2, 0.7, 2.0))
        once = apply_labels(names, mini_tax, boots)
        twice = apply_labels(names, mini_tax, boots)
        assert once.labels == twice.labels

    def test_synthetic_coverage(self, tax):
        res = generate(SynthConfig(n_restaurants=400, n_customers=10, days=2, seed=21))
        labels, _ = label_names(res.names, tax, BootstrapThresholds())
        assert len(labels) / len(res.names) >= 0.30


def test_labelset_tsv_round_trip(tmp_path):
    ls = LabelSet()
    ls.add("r1", CuisineClass.Bar, "seed")
    ls.add("r2", CuisineClass.Dessert, "bootstrap")
    path = tmp_path / "labels.tsv"
    ls.write_tsv(path)
    back = LabelSet.read_tsv(path)
    assert back.labels == ls.labels


def test_labelset_reads_the_two_field_form_as_truth(tmp_path):
    path = tmp_path / "truth_labels.tsv"
    path.write_text("r1\tBar\nr2\tDessert\ttruth\n")
    assert LabelSet.read_tsv(path, default_source="truth").labels == {
        "r1": (CuisineClass.Bar, "truth"), "r2": (CuisineClass.Dessert, "truth")}


@pytest.mark.parametrize("line,reason", [
    ("r2\n", "expected id<TAB>cuisine<TAB>source, got 1 fields"),
    ("r2\tBar\n", "expected id<TAB>cuisine<TAB>source, got 2 fields"),
    ("r2\tBar\tseed\textra\n", "expected id<TAB>cuisine<TAB>source, got 4 fields"),
    ("\tBar\tseed\n", "empty restaurant id"),
    ("r2\tBar\tbogus\n", "unknown label source 'bogus'"),
    ("r2\tBar\ttopic\n", "unknown label source 'topic'"),
    ("r2\tThai\tseed\n", "unknown cuisine class"),
], ids=["one field", "two fields", "four fields", "empty id", "bogus source", "topic source",
        "unknown cuisine"])
def test_labelset_bad_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "labels.tsv"
    path.write_text("r1\tBar\tseed\n" + line)
    with pytest.raises(ValueError, match=f"{path}:2: {reason}"):
        LabelSet.read_tsv(path)


def test_bootstrap_report_round_trip(tmp_path):
    # Values with at most 6 significant digits survive the writer's %.6g.
    words = [BootstrapWord("WOK", CuisineClass.EastAsian, 0.0125, 1.0, 3.5),
             BootstrapWord("TACO", CuisineClass.LatinAmerican, 0.5, 0.75, 12.0)]
    path = tmp_path / "bootstrap_report.tsv"
    write_bootstrap_report(path, words)
    assert read_bootstrap_report(path) == words
    write_bootstrap_report(path, [])
    assert read_bootstrap_report(path) == []


@pytest.mark.parametrize("line,reason", [
    ("WOK\n", "expected 5 tab-separated fields, got 1"),
    ("WOK\tEastAsian\t0.5\t1\n", "expected 5 tab-separated fields, got 4"),
    ("WOK\tThai\t0.5\t1\t2\n", "unknown cuisine class"),
    ("WOK\tEastAsian\t0.5\tx\t2\n", "could not convert"),
])
def test_bootstrap_report_bad_line_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "bootstrap_report.tsv"
    path.write_text("TACO\tLatinAmerican\t0.5\t0.75\t12\n" + line)
    with pytest.raises(ValueError, match=f"{path}:2: .*{reason}"):
        read_bootstrap_report(path)


def test_taxonomy_file_loader(tmp_path):
    p = tmp_path / "tax.txt"
    p.write_text("Bar\tPUB,TAVERN\nDessert\tCAFE\n")
    tax = load_taxonomy(p)
    assert tax.lookup("PUB") is CuisineClass.Bar
    assert tax.lookup("CAFE") is CuisineClass.Dessert
