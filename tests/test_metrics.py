"""Metric tests: parsing totality, structure alignment arithmetic,
hand-worked n-gram scores, a brute-force tf-idf oracle for the
consensus metric, and spectral diversity endpoints."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcap.errors import ShapeError
from graphcap.grammar import Grammar
from graphcap.metrics import (
    bleu4,
    cider_d,
    div_n,
    graph_structure_metric,
    ngram_overlap_metrics,
    parse_caption_tuples,
    rouge_l,
    self_cider,
)

GRAMMAR = Grammar(8, 6, 6)


def counts(tokens):
    return parse_caption_tuples(tokens, GRAMMAR).as_tuple()


class TestParse:
    def test_existence_clause(self):
        assert counts("there is a red ball".split()) == (1, 1, 0)

    def test_relation_clause(self):
        assert counts("the cat near the box".split()) == (2, 0, 1)

    def test_attributed_relation_clause(self):
        assert counts("the red cat near the blue big box".split()) == (2, 3, 1)

    def test_joined_clauses(self):
        toks = "the cat near the box and there is a red dog".split()
        assert counts(toks) == (3, 1, 1)

    def test_junk_tolerated(self):
        assert counts(["<unk>", "red", "near", "the"]) == (0, 0, 0)
        assert counts([]) == (0, 0, 0)
        assert counts(["ball", "ball", "ball"]) == (3, 0, 0)

    def test_orphan_attribute_not_counted(self):
        assert counts("red and the ball".split()) == (1, 0, 0)

    def test_relation_needs_both_ends(self):
        assert counts("near the ball".split()) == (1, 0, 0)
        assert counts("the ball near".split()) == (1, 0, 0)

    @given(st.lists(st.sampled_from(
        list(GRAMMAR.object_words) + list(GRAMMAR.attr_words)
        + list(GRAMMAR.rel_words) + ["the", "a", "and", "there", "is", "<unk>"]
    ), max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_total_on_arbitrary_sequences(self, tokens):
        c = parse_caption_tuples(tokens, GRAMMAR)
        assert c.n_objects >= 0 and c.n_attr_pairs >= 0 and c.n_rel_triples >= 0


class TestGraphStructureMetric:
    def test_identical_zero(self):
        toks = "the red cat near the box".split()
        assert graph_structure_metric(toks, toks, GRAMMAR) == (0.0, 0.0, 0.0, 0.0)

    def test_definition_arithmetic(self):
        # counts (2,1,1) vs (2,2,1): only the attribute type differs
        gen = "the red cat near the box".split()
        ref = "the red cat near the blue box".split()
        g, g_o, g_a, g_r = graph_structure_metric(gen, ref, GRAMMAR)
        assert (g_o, g_a, g_r) == (0.0, 1.0, 0.0)
        assert abs(g - 1 / 3) < 1e-15


class TestNgramOverlap:
    def test_identical_is_one(self):
        caps = ["there is a red ball".split()]
        b, r = ngram_overlap_metrics(caps, caps)
        assert b == 1.0 and r == 1.0

    def test_zero_fourgram_overlap(self):
        gen = ["a b c d".split()]
        ref = ["e f g h".split()]
        assert bleu4(gen, ref) == 0.0

    def test_two_sentence_pencil_corpus(self):
        # p1=6/8, p2=4/6, p3=2/4, p4=1/2, BP=1 -> (0.125)^(1/4) = 2^(-3/4)
        gens = ["a b c d".split(), "a b x y".split()]
        refs = ["a b c d".split(), "a b c d".split()]
        assert abs(bleu4(gens, refs) - 2 ** (-0.75)) < 1e-12
        # pair F-scores: 1.0 and (with lcs=2, P=R=0.5) 0.5 -> mean 0.75
        assert abs(rouge_l(gens, refs) - 0.75) < 1e-12

    def test_brevity_penalty(self):
        gens = ["a b".split()]
        refs = ["a b c d".split()]
        # p1=2/2, p2=1/1, p3,p4 empty -> zero matches at n=3 -> score 0
        assert bleu4(gens, refs) == 0.0
        gens = ["a b c".split()]
        refs = ["a b c d".split()]
        want = math.exp(1 - 4 / 3) * math.exp(
            0.25 * (math.log(3 / 3) + math.log(2 / 2) + math.log(1 / 1) + math.log(1e-300))
        )
        assert bleu4(gens, refs) == 0.0  # no 4-gram at all

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            bleu4([], [])


# ---------------------------------------------------------------------------
# consensus metric vs an independent brute-force oracle
# ---------------------------------------------------------------------------


def oracle_cider(gen, ref, corpus):
    """Direct transcription of the definition: tf-idf over 1..4-grams
    with df from the corpus, cosine per n (raw-count fallback when a
    side has zero norm), Gaussian length penalty, x10, mean over n."""

    def ngrams(toks, n):
        return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))

    total = 0.0
    for n in range(1, 5):
        df = Counter()
        for doc in corpus:
            for g in set(ngrams(doc, n)):
                df[g] += 1
        nd = max(1, len(corpus))

        def vec(toks):
            return {
                g: c * (math.log(nd / df[g]) if df[g] else math.log(nd))
                for g, c in ngrams(toks, n).items()
            }

        vg, vr = vec(gen), vec(ref)
        ng = math.sqrt(sum(v * v for v in vg.values()))
        nr = math.sqrt(sum(v * v for v in vr.values()))
        if ng == 0.0 or nr == 0.0:
            cg, cr = ngrams(gen, n), ngrams(ref, n)
            ng = math.sqrt(sum(v * v for v in cg.values()))
            nr = math.sqrt(sum(v * v for v in cr.values()))
            dot = sum(v * cr[g] for g, v in cg.items())
            cos = dot / (ng * nr) if ng and nr else 0.0
        else:
            cos = sum(v * vr[g] for g, v in vg.items() if g in vr) / (ng * nr)
        total += cos
    penalty = math.exp(-((len(gen) - len(ref)) ** 2) / (2 * 36.0))
    return 10.0 * (total / 4.0) * penalty


class TestCider:
    def test_identity_singleton_corpus_maximal(self):
        cap = "there is a red ball".split()
        assert abs(cider_d([cap], [cap], [cap]) - 10.0) < 1e-12

    def test_disjoint_vocabulary_zero(self):
        gen = ["a b c d e".split()]
        ref = ["v w x y z".split()]
        assert cider_d(gen, ref, ref) == 0.0

    def test_three_caption_corpus_matches_oracle(self):
        corpus = [
            "the red cat near the box".split(),
            "there is a blue ball".split(),
            "the dog chases the red ball".split(),
        ]
        gens = [
            "the red cat near the box".split(),
            "there is a red ball".split(),
            "the dog chases the ball".split(),
        ]
        got = cider_d(gens, corpus, corpus)
        want = np.mean([oracle_cider(g, r, corpus) for g, r in zip(gens, corpus)])
        assert abs(got - want) < 1e-9

    def test_symmetric_single_reference(self):
        corpus = [
            "the red cat near the box".split(),
            "there is a blue ball".split(),
        ]
        a = "the red cat near the box".split()
        b = "the cat near the red box and there is a dog".split()
        assert abs(
            cider_d([a], [b], corpus) - cider_d([b], [a], corpus)
        ) < 1e-12

    def test_permutation_invariant_over_dataset(self):
        corpus = [
            "the red cat near the box".split(),
            "there is a blue ball".split(),
            "the dog chases the ball".split(),
        ]
        gens = [c[:-1] + ["ball"] for c in corpus]
        fwd = cider_d(gens, corpus, corpus)
        rev = cider_d(gens[::-1], corpus[::-1], corpus)
        assert abs(fwd - rev) < 1e-12


class TestDiversity:
    def test_five_identical_div1(self):
        caps = ["a red ball".split()] * 5
        assert abs(div_n(caps, 1) - 0.2) < 1e-15

    def test_disjoint_unigrams_full_diversity(self):
        caps = [["a", "b"], ["c", "d"], ["e", "f"]]
        assert div_n(caps, 1) == 1.0

    def test_div2(self):
        caps = ["a red ball".split()] * 5
        assert abs(div_n(caps, 2) - 2 / 15) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            div_n([], 1)


class TestSelfCider:
    def test_duplicates_zero(self):
        caps = ["there is a red ball".split()] * 4
        assert self_cider(caps) == 0.0

    def test_orthogonal_one(self):
        caps = [
            "ball box cat".split(),
            "dog tree car".split(),
            "cup bird lamp".split(),
        ]
        assert abs(self_cider(caps) - 1.0) < 1e-9

    def test_mixed_set_matches_eigen_oracle(self):
        from graphcap.metrics import _df_stats, cider_pair

        caps = [
            "the red cat near the box".split(),
            "the red cat near the ball".split(),
            "there is a blue dog".split(),
            "the dog chases the cat".split(),
        ]
        got = self_cider(caps)
        df, nd = _df_stats(caps)
        m = len(caps)
        k = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                k[i, j] = cider_pair(caps[i], caps[j], df, nd)
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
        lam = np.linalg.eigvalsh(k)
        want = (1.0 - lam[-1] / lam.sum()) * m / (m - 1)
        assert abs(got - want) < 1e-8

    def test_too_few_rejected(self):
        with pytest.raises(ShapeError):
            self_cider([["a"]])

    def test_empty_caption_unlike_any_other(self):
        assert self_cider([[], ["a", "b"]]) == 1.0
        assert self_cider([[], ["a", "b"], ["c", "d"]]) == 1.0

    def test_empty_captions_are_duplicates(self):
        assert self_cider([[], []]) == 0.0
