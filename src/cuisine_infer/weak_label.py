"""Weakly-supervised cuisine labeling from restaurant names.

Seed keyword matching, bootstrapped keyword expansion under
frequency/precision/significance gates, and optional topic-model
augmentation (see btm module).
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .txn_core import CuisineClass, read_keyed_records, read_records, write_records

CORPORATE_SUFFIXES = {"LLC", "INC", "CO", "CORP"}


def tokenize_name(name: str) -> list[str]:
    """Uppercase, fold diacritics, strip punctuation/digits, split, and drop
    corporate suffixes and sub-2-character tokens."""
    folded = unicodedata.normalize("NFKD", name)
    chars = []
    for ch in folded:
        if unicodedata.combining(ch):
            continue
        if ch.isalpha():
            chars.append(ch.upper())
        else:
            chars.append(" ")
    tokens = "".join(chars).split()
    return [t for t in tokens if len(t) >= 2 and t not in CORPORATE_SUFFIXES]


@dataclass
class Taxonomy:
    keywords: dict[CuisineClass, set[str]]

    def __post_init__(self):
        seen: dict[str, CuisineClass] = {}
        for cuisine, words in self.keywords.items():
            if not words:
                raise ValueError(f"empty keyword set for {cuisine.name}")
            for w in words:
                if w in seen:
                    raise ValueError(f"keyword {w} in both {seen[w].name} and {cuisine.name}")
                seen[w] = cuisine
        self._by_word = seen

    def lookup(self, token: str) -> CuisineClass | None:
        return self._by_word.get(token)

    def all_keywords(self) -> set[str]:
        return set(self._by_word)


def load_taxonomy(path=None) -> Taxonomy:
    """Load a taxonomy file (CUISINE<TAB>kw1,kw2,...); default: bundled list.

    An unknown cuisine, a cuisine on two lines, a line with no keywords or
    a keyword under two cuisines is a ValueError naming the file and line."""
    if path is None:
        path = resources.files("cuisine_infer.data").joinpath("seed_taxonomy.txt")
        text = path.read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    keywords: dict[CuisineClass, set[str]] = {}
    first_line: dict[CuisineClass, int] = {}
    owner: dict[str, CuisineClass] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cls_name, _, words = line.partition("\t")
        try:
            cuisine = CuisineClass.from_name(cls_name)
            if cuisine in first_line:
                raise ValueError(f"{cuisine.name} already listed on line {first_line[cuisine]}")
            words = {w.strip().upper() for w in words.split(",") if w.strip()}
            if not words:
                raise ValueError(f"no keywords for {cuisine.name}")
            for w in sorted(words):
                if w in owner:
                    raise ValueError(f"keyword {w} in both {owner[w].name} and {cuisine.name}")
                owner[w] = cuisine
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        keywords[cuisine] = words
        first_line[cuisine] = line_no
    return Taxonomy(keywords)


def seed_label(name: str, taxonomy: Taxonomy) -> tuple[CuisineClass, str] | None:
    """Match name tokens against seed keywords.

    A single-class hit labels the restaurant; hits in two or more classes are
    a conflict and yield no label.
    """
    hits: dict[CuisineClass, str] = {}
    for tok in tokenize_name(name):
        cuisine = taxonomy.lookup(tok)
        if cuisine is not None and cuisine not in hits:
            hits[cuisine] = tok
    if len(hits) == 1:
        return next(iter(hits.items()))
    return None


@dataclass
class LabelSet:
    """restaurant_id -> (cuisine, source); source in {seed, bootstrap, topic, truth}."""

    labels: dict[str, tuple[CuisineClass, str]] = field(default_factory=dict)

    def add(self, rid: str, cuisine: CuisineClass, source: str) -> None:
        if rid in self.labels:
            raise ValueError(f"duplicate label for {rid}")
        self.labels[rid] = (cuisine, source)

    def get(self, rid: str) -> CuisineClass | None:
        entry = self.labels.get(rid)
        return entry[0] if entry else None

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, rid: str) -> bool:
        return rid in self.labels

    def items(self):
        return self.labels.items()

    def write_tsv(self, path) -> None:
        write_records(path, ((rid, cuisine.name, source)
                             for rid, (cuisine, source) in sorted(self.labels.items())))

    @classmethod
    def read_tsv(cls, path) -> "LabelSet":
        def row(parts):
            if len(parts) < 2:
                raise ValueError("expected id<TAB>cuisine")
            source = parts[2] if len(parts) > 2 else "truth"
            return parts[0], (CuisineClass.from_name(parts[1]), source)

        return cls(read_keyed_records(path, row))


@dataclass(frozen=True)
class BootstrapThresholds:
    theta_f: float = 5e-4   # min fraction of all names containing the word
    theta_p: float = 0.9    # min precision of the word -> majority-label rule
    theta_s: float = 0.5    # min labeled/unlabeled ratio among names with the word

    def __post_init__(self):
        if not (0 < self.theta_f <= 1):
            raise ValueError("theta_f: must be in (0, 1]")
        if not (0 < self.theta_p <= 1):
            raise ValueError("theta_p: must be in (0, 1]")
        if not self.theta_s > 0:
            raise ValueError("theta_s: must be > 0")


@dataclass(frozen=True)
class BootstrapWord:
    word: str
    cuisine: CuisineClass
    freq: float
    prec: float
    sig: float


def bootstrap_expand(
    labeled: LabelSet,
    names: dict[str, str],
    taxonomy: Taxonomy,
    th: BootstrapThresholds,
) -> list[BootstrapWord]:
    """Mine non-seed words usable as secondary labeling patterns.

    For each non-seed word w over the name corpus:
      freq(w) = fraction of all names containing w
      maj(w)  = modal cuisine among labeled names containing w
      prec(w) = fraction of those labeled names carrying maj(w)
      sig(w)  = labeled-with-w / max(1, unlabeled-with-w)
    Words passing all three gates are returned with maj(w). Single pass.
    """
    if not labeled.labels:
        raise ValueError("bootstrap_expand requires a nonempty labeled set")
    seeds = taxonomy.all_keywords()
    n_names = len(names)
    containing: Counter[str] = Counter()
    labeled_with: dict[str, Counter] = {}
    unlabeled_with: Counter[str] = Counter()
    for rid, name in names.items():
        toks = set(tokenize_name(name)) - seeds
        label = labeled.get(rid)
        for w in toks:
            containing[w] += 1
            if label is None:
                unlabeled_with[w] += 1
            else:
                labeled_with.setdefault(w, Counter())[label] += 1
    out = []
    for w, n_with in sorted(containing.items()):
        counts = labeled_with.get(w)
        if counts is None:
            continue  # precision undefined -> reject
        freq = n_with / n_names
        n_labeled = sum(counts.values())
        maj, maj_count = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        prec = maj_count / n_labeled
        sig = n_labeled / max(1, unlabeled_with[w])
        if freq >= th.theta_f and prec >= th.theta_p and sig >= th.theta_s:
            out.append(BootstrapWord(w, maj, freq, prec, sig))
    return out


def write_bootstrap_report(path, words: list[BootstrapWord]) -> None:
    write_records(path, ((bw.word, bw.cuisine.name, f"{bw.freq:.6g}", f"{bw.prec:.6g}",
                          f"{bw.sig:.6g}") for bw in words))


def read_bootstrap_report(path) -> list[BootstrapWord]:
    """The words of a file written by `write_bootstrap_report`."""
    def row(parts):
        if len(parts) != 5:
            raise ValueError(f"expected 5 tab-separated fields, got {len(parts)}")
        return BootstrapWord(parts[0], CuisineClass.from_name(parts[1]), *map(float, parts[2:]))

    return read_records(path, row)


def apply_labels(
    names: dict[str, str],
    taxonomy: Taxonomy,
    bootstrapped: list[BootstrapWord],
) -> LabelSet:
    """Label restaurants: seed keywords first, bootstrap words for the rest.

    Both passes use the same conflict rule: a name hitting words of two or
    more classes gets no label.
    """
    boot_map = {bw.word: bw.cuisine for bw in bootstrapped}
    out = LabelSet()
    for rid, name in sorted(names.items()):
        hit = seed_label(name, taxonomy)
        if hit is not None:
            out.add(rid, hit[0], "seed")
            continue
        classes = {boot_map[t] for t in tokenize_name(name) if t in boot_map}
        if len(classes) == 1:
            out.add(rid, next(iter(classes)), "bootstrap")
    return out


def label_names(
    names: dict[str, str],
    taxonomy: Taxonomy,
    th: BootstrapThresholds,
    rounds: int = 1,
) -> tuple[LabelSet, list[BootstrapWord]]:
    """Full weak-labeling pass: seed labels, then `rounds` of bootstrapping."""
    seed_set = apply_labels(names, taxonomy, [])
    if not seed_set.labels:
        return seed_set, []
    bootstrapped: list[BootstrapWord] = []
    labels = seed_set
    for _ in range(rounds):
        new_words = bootstrap_expand(labels, names, taxonomy, th)
        if {bw.word for bw in new_words} == {bw.word for bw in bootstrapped}:
            break
        bootstrapped = new_words
        labels = apply_labels(names, taxonomy, bootstrapped)
    return labels, bootstrapped
