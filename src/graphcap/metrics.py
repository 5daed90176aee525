"""Caption evaluation: tuple parsing, structure alignment, n-gram
overlap, consensus similarity, and diversity scores.

The tuple parser inverts the synthetic grammar and is total: any token
sequence yields counts, skipping whatever does not fit.  Structure
alignment (lower is better) is the mean absolute difference of tuple
counts per type.  BLEU-4 is corpus-level with brevity penalty and no
smoothing; ROUGE-L is the LCS F-measure with beta = 1.2; the consensus
score uses tf-idf n-gram cosines with a Gaussian length penalty; the
set-diversity score is a spectral statistic of the normalized pairwise
consensus kernel (0 for duplicates, 1 for pairwise-orthogonal sets).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .grammar import Grammar

__all__ = [
    "TupleCounts",
    "MetricReport",
    "parse_caption_tuples",
    "graph_structure_metric",
    "ngram_overlap_metrics",
    "bleu4",
    "rouge_l",
    "cider_d",
    "div_n",
    "self_cider",
]


@dataclass(frozen=True)
class TupleCounts:
    n_objects: int
    n_attr_pairs: int
    n_rel_triples: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_objects, self.n_attr_pairs, self.n_rel_triples)


@dataclass
class MetricReport:
    bleu4: float
    rouge_l: float
    cider_d: float
    g: float
    g_o: float
    g_a: float
    g_r: float
    div1: float | None = None
    div2: float | None = None
    self_cider: float | None = None

    def to_json(self) -> dict:
        return {
            "bleu4": self.bleu4,
            "rouge_l": self.rouge_l,
            "cider_d": self.cider_d,
            "G": self.g,
            "G_o": self.g_o,
            "G_a": self.g_a,
            "G_r": self.g_r,
            "div1": self.div1,
            "div2": self.div2,
            "self_cider": self.self_cider,
        }


def parse_caption_tuples(tokens: list[str], grammar: Grammar) -> TupleCounts:
    """Count object mentions, attribute pairs, and relation triples.

    Rules (inverting the rendering templates, tolerant of junk):
    * every class word counts as an object mention;
    * an attribute word counts iff a class word follows it with only
      attribute words between;
    * a relation word counts iff a class word immediately precedes it
      and a class word follows after skipping articles and attributes.
    """
    n_obj = 0
    n_attr = 0
    n_rel = 0
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok in grammar.object_set:
            n_obj += 1
        elif tok in grammar.attr_set:
            j = i + 1
            while j < n and tokens[j] in grammar.attr_set:
                j += 1
            if j < n and tokens[j] in grammar.object_set:
                n_attr += 1
        elif tok in grammar.rel_set:
            if i == 0 or tokens[i - 1] not in grammar.object_set:
                continue
            j = i + 1
            while j < n and tokens[j] in grammar.skippable:
                j += 1
            if j < n and tokens[j] in grammar.object_set:
                n_rel += 1
    return TupleCounts(n_objects=n_obj, n_attr_pairs=n_attr, n_rel_triples=n_rel)


def graph_structure_metric(
    gen: list[str], ref: list[str], grammar: Grammar
) -> tuple[float, float, float, float]:
    """(G, G_o, G_a, G_r): absolute tuple-count differences, G averaging
    the three types.  Lower is better; identical captions give zeros."""
    cg = parse_caption_tuples(gen, grammar)
    cr = parse_caption_tuples(ref, grammar)
    g_o = abs(cg.n_objects - cr.n_objects)
    g_a = abs(cg.n_attr_pairs - cr.n_attr_pairs)
    g_r = abs(cg.n_rel_triples - cr.n_rel_triples)
    return ((g_o + g_a + g_r) / 3.0, float(g_o), float(g_a), float(g_r))


# ---------------------------------------------------------------------------
# n-gram overlap
# ---------------------------------------------------------------------------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(gens: list[list[str]], refs: list[list[str]]) -> float:
    """Corpus BLEU-4, brevity penalty, no smoothing (any empty n-gram
    precision level zeroes the score)."""
    if not gens or len(gens) != len(refs):
        raise ShapeError("parallel non-empty caption lists required")
    log_sum = 0.0
    for n in range(1, 5):
        matched = 0
        total = 0
        for gen, ref in zip(gens, refs):
            cg = _ngrams(gen, n)
            cr = _ngrams(ref, n)
            matched += sum(min(c, cr[g]) for g, c in cg.items())
            total += sum(cg.values())
        if matched == 0 or total == 0:
            return 0.0
        log_sum += 0.25 * math.log(matched / total)
    c = sum(len(g) for g in gens)
    r = sum(len(rf) for rf in refs)
    bp = 1.0 if c > r else math.exp(1.0 - r / c) if c > 0 else 0.0
    return bp * math.exp(log_sum)


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(gens: list[list[str]], refs: list[list[str]], beta: float = 1.2) -> float:
    """Mean per-instance LCS F-measure."""
    if not gens or len(gens) != len(refs):
        raise ShapeError("parallel non-empty caption lists required")
    scores = []
    for gen, ref in zip(gens, refs):
        lcs = _lcs_len(gen, ref)
        if lcs == 0 or not gen or not ref:
            scores.append(0.0)
            continue
        prec = lcs / len(gen)
        rec = lcs / len(ref)
        scores.append(((1 + beta**2) * prec * rec) / (rec + beta**2 * prec))
    return float(np.mean(scores))


def ngram_overlap_metrics(gens: list[list[str]], refs: list[list[str]]) -> tuple[float, float]:
    return bleu4(gens, refs), rouge_l(gens, refs)


# ---------------------------------------------------------------------------
# consensus similarity (tf-idf n-gram cosine with length penalty)
# ---------------------------------------------------------------------------

_SIGMA_LEN = 6.0


def _df_stats(corpus: list[list[str]]):
    """Document frequency per n-gram over the corpus (one document per
    caption)."""
    df = [Counter() for _ in range(4)]
    for doc in corpus:
        for n in range(1, 5):
            for g in set(_ngrams(doc, n)):
                df[n - 1][g] += 1
    return df, max(1, len(corpus))


def _norm(vec: dict) -> float:
    return math.sqrt(sum(v * v for v in vec.values()))


def _caption_stats(tokens: list[str], df, n_docs: int):
    """What ``cider_pair`` reads of one caption under fixed corpus
    statistics: its length and, per n-gram level 1..4, its tf-idf
    vector and norm and its raw counts and norm."""
    levels = []
    for n in range(1, 5):
        counts = _ngrams(tokens, n)
        vec = {}
        for g, c in counts.items():
            idf = math.log(n_docs / df[n - 1][g]) if df[n - 1][g] > 0 else math.log(n_docs)
            vec[g] = c * idf
        levels.append((vec, _norm(vec), counts, _norm(counts)))
    return len(tokens), levels


def _cosine(a: dict, na: float, b: dict, nb: float) -> float | None:
    """Cosine of sparse vectors of norms ``na`` and ``nb``; None
    signals a zero norm."""
    if na == 0.0 or nb == 0.0:
        return None
    dot = sum(v * b[g] for g, v in a.items() if g in b)
    return dot / (na * nb)


def _cider_of(gen_stats, ref_stats) -> float:
    """The pair score of two captions' ``_caption_stats``."""
    (len_gen, gen_levels), (len_ref, ref_levels) = gen_stats, ref_stats
    penalty = math.exp(-((len_gen - len_ref) ** 2) / (2 * _SIGMA_LEN**2))
    total = 0.0
    for (vg, ng, cg, rg), (vr, nr, cr, rr) in zip(gen_levels, ref_levels):
        cos = _cosine(vg, ng, vr, nr)
        if cos is None:
            cos = _cosine(cg, rg, cr, rr) or 0.0
        total += cos
    return 10.0 * (total / 4.0) * penalty


def cider_pair(gen: list[str], ref: list[str], df, n_docs: int) -> float:
    """Similarity of one pair under fixed corpus statistics: mean over
    n of tf-idf cosine, Gaussian length penalty, scaled by 10.

    When the idf weights zero out a level entirely (every n-gram occurs
    in every document, e.g. a singleton corpus), the cosine falls back
    to raw counts so identical captions still score maximally (and to 0
    when a caption has no n-gram of that level).
    """
    return _cider_of(_caption_stats(gen, df, n_docs), _caption_stats(ref, df, n_docs))


def cider_d(gens: list[list[str]], refs: list[list[str]], corpus: list[list[str]]) -> float:
    """Corpus mean of pairwise consensus scores; ``corpus`` supplies the
    document-frequency statistics (typically the reference set)."""
    if not gens or len(gens) != len(refs):
        raise ShapeError("parallel non-empty caption lists required")
    if not corpus:
        raise ShapeError("empty document-frequency corpus")
    df, n_docs = _df_stats(corpus)
    return float(np.mean([cider_pair(g, r, df, n_docs) for g, r in zip(gens, refs)]))


# ---------------------------------------------------------------------------
# diversity
# ---------------------------------------------------------------------------


def div_n(captions: list[list[str]], n: int) -> float:
    """Distinct n-grams across the set over total words across the set."""
    if not captions:
        raise ShapeError("empty caption set")
    distinct = set()
    total_words = 0
    for cap in captions:
        total_words += len(cap)
        distinct.update(_ngrams(cap, n).keys())
    if total_words == 0:
        return 0.0
    return len(distinct) / total_words


def self_cider(captions: list[list[str]]) -> float:
    """Spectral diversity of a caption set.

    Builds the pairwise consensus kernel (document frequencies from the
    set itself), normalizes it to a unit diagonal, and scores
    1 - lambda_max / trace, rescaled by m/(m-1) so duplicates give 0 and
    pairwise-orthogonal captions give 1.  An empty caption shares no
    n-gram with anything, so it counts as a duplicate of another empty
    caption and as orthogonal to every other caption.
    """
    m = len(captions)
    if m < 2:
        raise ShapeError("need at least two captions")
    df, n_docs = _df_stats(captions)
    stats = [_caption_stats(cap, df, n_docs) for cap in captions]
    k = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            k[i, j] = k[j, i] = _cider_of(stats[i], stats[j])
    empty = np.array([not cap for cap in captions])
    diag = np.where(empty, 1.0, np.diag(k))
    k = k / np.sqrt(np.outer(diag, diag))  # sqrt(c * c) == c: duplicates give exact ones
    k[np.outer(empty, empty)] = 1.0
    np.fill_diagonal(k, 1.0)
    eig = np.linalg.eigvalsh(k)
    lam_max = float(eig[-1])
    total = float(np.sum(eig))
    score = (1.0 - lam_max / total) * m / (m - 1)
    return float(min(1.0, max(0.0, score)))
