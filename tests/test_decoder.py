"""Decoder tests: cell arithmetic vs hand computation, attention laws,
graph-memory update locality, and beam search vs exhaustive
enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcap import autodiff as ad
from graphcap.decoder import (
    LstmParams,
    beam_search,
    content_attention,
    flow_attention,
    fuse_and_context,
    graph_update,
    init_decoder_params,
    init_state,
    lstm_step,
    output_log_probs,
)
from graphcap.encoder import FeatureBundle
from graphcap.errors import ShapeError
from graphcap.grammar import Vocab
from graphcap.graph import Node, NodeRole, SceneGraph, build_flow, flow_step
from graphcap.model import CaptionModel, ModelConfig

O, A, R = NodeRole.OBJECT, NodeRole.ATTRIBUTE, NodeRole.RELATIONSHIP


def make_graph(roles, edges):
    nodes = tuple(Node(id=i, role=r, region=0) for i, r in enumerate(roles))
    return SceneGraph(nodes=nodes, edges=tuple(edges))


def chain_graph():
    return make_graph([O, A, R, O], [(0, 1), (0, 2), (2, 3)])


def rand_params(d, vocab=7, seed=0):
    return init_decoder_params(d, vocab, np.random.default_rng(seed))


def chain_flows(k=1):
    """The chain graph's flow matrix for each of ``k`` rows, (k, 5, 5)."""
    return np.repeat(build_flow(chain_graph()).matrix[None], k, axis=0)


class TestInitState:
    def test_start_one_hot(self):
        x = ad.tensor(np.random.default_rng(0).normal(size=(2, 5, 3)))
        st = init_state(x, chain_flows(2))
        np.testing.assert_array_equal(st.alpha.data, [[1, 0, 0, 0, 0]] * 2)
        np.testing.assert_array_equal(st.z.data, np.zeros((2, 3)))
        for h in (st.h_att, st.c_att, st.h_lang, st.c_lang):
            assert h.data.shape == (2, 3)
        assert st.x_nodes is x

    def test_zero_context_dot(self):
        x = ad.tensor(np.ones((1, 5, 3)))
        st = init_state(x, chain_flows())
        assert float(st.z.data[0] @ np.ones(3)) == 0.0

    def test_deterministic(self):
        x = ad.tensor(np.random.default_rng(1).normal(size=(1, 5, 4)))
        a, b = init_state(x, chain_flows()), init_state(x, chain_flows())
        np.testing.assert_array_equal(a.alpha.data, b.alpha.data)
        np.testing.assert_array_equal(a.h_att.data, b.h_att.data)

    def test_slot_mismatch(self):
        with pytest.raises(ShapeError):
            init_state(ad.tensor(np.zeros((1, 3, 4))), chain_flows())


class TestLstmCell:
    def test_zero_everything_gives_zero_hidden(self):
        d = 4
        cell = LstmParams(
            w_ih=ad.parameter(np.zeros((2 * d, 4 * d))),
            w_hh=ad.parameter(np.zeros((d, 4 * d))),
            bias=ad.parameter(np.zeros(4 * d)),
        )
        h, c = lstm_step(cell, [ad.tensor(np.zeros((1, 2 * d)))], ad.tensor(np.zeros((1, d))), ad.tensor(np.zeros((1, d))))
        np.testing.assert_array_equal(h.data, np.zeros((1, d)))
        np.testing.assert_array_equal(c.data, np.zeros((1, d)))

    def test_deterministic(self):
        cell = rand_params(3).att_cell
        rng = np.random.default_rng(5)
        x, h, c = (ad.tensor(rng.normal(size=(1, n))) for n in (9, 3, 3))
        h1, c1 = lstm_step(cell, [x], h, c)
        h2, c2 = lstm_step(cell, [x], h, c)
        np.testing.assert_array_equal(h1.data, h2.data)
        np.testing.assert_array_equal(c1.data, c2.data)

    def test_pencil_oracle_one_unit(self):
        # d=1 cell worked by hand with gate order [i, f, o, g]
        cell = LstmParams(
            w_ih=ad.parameter(np.array([[0.1, 0.2, 0.3, 0.4]])),
            w_hh=ad.parameter(np.array([[0.5, 0.6, 0.7, 0.8]])),
            bias=ad.parameter(np.array([0.01, 0.02, 0.03, 0.04])),
        )
        x, h, c = 1.0, 0.5, -0.3
        gates = [0.1 * x + 0.5 * h + 0.01, 0.2 * x + 0.6 * h + 0.02,
                 0.3 * x + 0.7 * h + 0.03, 0.4 * x + 0.8 * h + 0.04]
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i, f, o = sig(gates[0]), sig(gates[1]), sig(gates[2])
        g = math.tanh(gates[3])
        c_want = f * c + i * g
        h_want = o * math.tanh(c_want)
        h_got, c_got = lstm_step(cell, [ad.tensor([[x]])], ad.tensor([[h]]), ad.tensor([[c]]))
        np.testing.assert_allclose(h_got.data, [[h_want]], atol=1e-15)
        np.testing.assert_allclose(c_got.data, [[c_want]], atol=1e-15)

    def test_parts_are_the_concatenated_input(self):
        # two row tensors around a table lookup give the bits of their
        # concatenation as one input
        cell = rand_params(3).att_cell
        rng = np.random.default_rng(6)
        scene, table, x = rng.normal(size=(2, 3)), rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
        h, c = (ad.tensor(rng.normal(size=(2, 3))) for _ in range(2))
        ids = np.array([4, 1])
        got = lstm_step(cell, [ad.tensor(scene), (ad.tensor(table), ids), ad.tensor(x)], h, c)
        whole = np.concatenate([scene, table[ids], x], axis=1)
        want = lstm_step(cell, [ad.tensor(whole)], h, c)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)


class TestContentAttention:
    def test_identical_rows_uniform(self):
        p = rand_params(4)
        x = ad.tensor(np.tile(np.random.default_rng(2).normal(size=4), (1, 6, 1)))
        h = ad.tensor(np.random.default_rng(3).normal(size=(1, 4)))
        out = content_attention(p, x, h, np.zeros((1, 6)))
        np.testing.assert_allclose(out.data, np.full((1, 6), 1 / 6), atol=1e-12)

    def test_single_slot(self):
        p = rand_params(4)
        out = content_attention(p, ad.tensor(np.ones((1, 1, 4))), ad.tensor(np.zeros((1, 4))), np.zeros((1, 1)))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_pencil_two_nodes_1d(self):
        # d=1: scores_i = w_c * tanh(w_x * x_i + w_h * h)
        p = rand_params(1)
        p.content_wx = ad.parameter(np.array([[2.0]]))
        p.content_wh = ad.parameter(np.array([[0.5]]))
        p.content_score = ad.parameter(np.array([1.5]))
        x0, x1, h = 0.3, -0.7, 0.2
        s0 = 1.5 * math.tanh(2 * x0 + 0.5 * h)
        s1 = 1.5 * math.tanh(2 * x1 + 0.5 * h)
        e0, e1 = math.exp(s0), math.exp(s1)
        want = np.array([e0, e1]) / (e0 + e1)
        got = content_attention(p, ad.tensor([[[x0], [x1]]]), ad.tensor([[h]]), np.zeros((1, 2))).data[0]
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestFlowAttention:
    def test_zero_gate_uniform_modes_and_mean(self):
        d = 4
        p = rand_params(d)
        p.flow_wh = ad.parameter(np.zeros((d, d)))
        p.flow_wz = ad.parameter(np.zeros((d, d)))
        fg = build_flow(chain_graph())
        alpha = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        h = ad.tensor(np.random.default_rng(4).normal(size=(1, d)))
        z = ad.tensor(np.random.default_rng(5).normal(size=(1, d)))
        out, modes = flow_attention(p, chain_flows(), ad.tensor([alpha]), h, z)
        np.testing.assert_allclose(modes.data, [[1 / 3] * 3], atol=1e-12)
        want = (flow_step(fg, alpha, 0) + flow_step(fg, alpha, 1) + flow_step(fg, alpha, 2)) / 3.0
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)

    def test_matches_reference_transport_for_any_gate(self):
        # whatever mode distribution the gate produces, the output must
        # be its mixture of the three reference transports
        p = rand_params(5, seed=8)
        fg = build_flow(chain_graph())
        rng = np.random.default_rng(9)
        for _ in range(25):
            raw = rng.random(fg.n_slots) + 1e-6
            alpha = raw / raw.sum()
            h = ad.tensor(rng.normal(size=(1, 5)))
            z = ad.tensor(rng.normal(size=(1, 5)))
            out, modes = flow_attention(p, chain_flows(), ad.tensor([alpha]), h, z)
            s = modes.data[0]
            want = sum(s[k] * flow_step(fg, alpha, k) for k in range(3))
            np.testing.assert_allclose(out.data[0], want, atol=1e-12)
            assert abs(s.sum() - 1.0) < 1e-12 and s.min() >= 0

    def test_relationship_hop_concentrates_on_object(self):
        # one-hot on the relationship node, one step -> its object
        fg = build_flow(chain_graph())  # slots: S,o0,a1,r2,o3
        alpha = np.zeros(5)
        alpha[3] = 1.0
        moved = flow_step(fg, alpha, 1)
        assert moved[4] > 0.99


class TestFuseAndContext:
    def test_content_only(self):
        p = rand_params(3)
        ac = ad.tensor(np.array([[0.2, 0.8]]))
        x = ad.tensor(np.random.default_rng(0).normal(size=(1, 2, 3)))
        alpha, ctx, beta = fuse_and_context(p, ac, None, ad.tensor(np.zeros((1, 3))), ad.tensor(np.zeros((1, 3))), x)
        assert beta is None
        np.testing.assert_array_equal(alpha.data, ac.data)

    def test_equal_branches_any_gate(self):
        p = rand_params(3, seed=6)
        a = ad.tensor(np.array([[0.5, 0.25, 0.25]]))
        x = ad.tensor(np.random.default_rng(1).normal(size=(1, 3, 3)))
        h = ad.tensor(np.random.default_rng(2).normal(size=(1, 3)))
        alpha, ctx, beta = fuse_and_context(p, a, a, h, h, x)
        np.testing.assert_allclose(alpha.data, a.data, atol=1e-15)
        assert beta.data.shape == (1, 1) and 0.0 < float(beta.data[0, 0]) < 1.0

    def test_context_weighted_sum_pencil(self):
        p = rand_params(2)
        alpha_c = ad.tensor(np.array([[0.25, 0.75]]))
        x = ad.tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        alpha, ctx, _ = fuse_and_context(p, alpha_c, None, ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros((1, 2))), x)
        np.testing.assert_allclose(ctx.data, [[0.25 * 1 + 0.75 * 3, 0.25 * 2 + 0.75 * 4]], atol=1e-15)

    def test_both_disabled_rejected(self):
        p = rand_params(2)
        with pytest.raises(ShapeError):
            fuse_and_context(p, None, None, ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros((1, 1, 2))))


class TestOutputLayer:
    def test_zero_projection_uniform(self):
        d, v = 3, 9
        p = rand_params(d, vocab=v, seed=3)
        p.w_out = ad.parameter(np.zeros((d, v)))
        p.b_out = ad.parameter(np.zeros(v))
        log_probs = output_log_probs(p, np.random.default_rng(4).normal(size=d))
        np.testing.assert_allclose(log_probs, np.full(v, -np.log(v)), atol=1e-12)

    def test_distribution_for_random_inputs(self):
        p = rand_params(4, vocab=11, seed=5)
        rng = np.random.default_rng(6)
        for rows in [(), (1,), (7,)]:
            h = rng.normal(size=rows + (4,)) * 10
            log_probs = output_log_probs(p, h)
            assert log_probs.shape == rows + (11,) and log_probs.max() <= 0.0
            np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, atol=1e-12)
            for r in np.ndindex(rows):
                np.testing.assert_allclose(log_probs[r], output_log_probs(p, h[r]), rtol=1e-14, atol=1e-14)

    def test_huge_logits_stay_finite(self):
        # exp overflows and underflows; the max shift keeps both finite
        p = rand_params(2, vocab=3, seed=7)
        p.w_out = ad.parameter(np.array([[1000.0, 0.0, -1000.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(output_log_probs(p, np.array([1.0, 0.0])), [0.0, -1000.0, -2000.0])


class TestGraphUpdate:
    def test_saturated_sentinel_freezes_everything(self):
        d = 4
        p = rand_params(d, seed=7)
        p.sentinel_b = ad.parameter(np.array([-1000.0]))  # sigmoid underflows to exactly 0
        x = ad.tensor(np.random.default_rng(8).normal(size=(1, 5, d)))
        alpha = ad.tensor(np.full((1, 5), 0.2))
        x_new, sentinel = graph_update(p, x, ad.tensor(np.random.default_rng(9).normal(size=(1, d))), alpha)
        assert float(sentinel.data[0, 0]) == 0.0
        assert np.array_equal(x_new.data, x.data)

    def test_zero_attention_slot_bit_identical(self):
        d = 3
        p = rand_params(d, seed=10)
        x = ad.tensor(np.random.default_rng(11).normal(size=(1, 4, d)))
        alpha = ad.tensor(np.array([[0.5, 0.0, 0.5, 0.0]]))
        x_new, _ = graph_update(p, x, ad.tensor(np.random.default_rng(12).normal(size=(1, d))), alpha)
        assert np.array_equal(x_new.data[0, 1], x.data[0, 1])
        assert np.array_equal(x_new.data[0, 3], x.data[0, 3])
        assert not np.array_equal(x_new.data[0, 0], x.data[0, 0])

    def test_full_erase_zero_add(self):
        d = 3
        p = rand_params(d, seed=13)
        p.sentinel_b = ad.parameter(np.array([1000.0]))  # sentinel exactly 1
        p.erase_w = ad.parameter(np.zeros((2 * d, d)))
        p.erase_b = ad.parameter(np.full(d, 1000.0))  # erase gate exactly 1
        p.add_w = ad.parameter(np.zeros((2 * d, d)))
        p.add_b = ad.parameter(np.zeros(d))
        x = ad.tensor(np.random.default_rng(14).normal(size=(1, 2, d)))
        alpha = ad.tensor(np.array([[1.0, 0.0]]))
        x_new, sentinel = graph_update(p, x, ad.tensor(np.zeros((1, d))), alpha)
        assert float(sentinel.data[0, 0]) == 1.0
        np.testing.assert_array_equal(x_new.data[0, 0], np.zeros(d))
        np.testing.assert_array_equal(x_new.data[0, 1], x.data[0, 1])


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------


def tiny_model(vocab_words=("aa", "bb"), d=4, seed=0):
    vocab = Vocab.build(list(vocab_words))
    model = CaptionModel(ModelConfig(dim=d, n_layers=1), vocab, seed=seed)
    return model, vocab


def tiny_input(d=4, seed=1):
    g = make_graph([O, R, O], [(0, 1), (1, 2)])
    rng = np.random.default_rng(seed)
    feats = FeatureBundle(node_features=rng.normal(size=(3, d)), scene_feature=rng.normal(size=d))
    return g, feats


def enumerate_sequences(model, g, feats, max_len, eos_id):
    """Exhaustive tree walk over all decode paths, scoring each leaf by
    its exact total log-probability (the beam-search oracle)."""
    prepared = model.prepare(g, feats)
    leaves = []

    def walk(state, tokens, score):
        if tokens and (tokens[-1] == eos_id or len(tokens) == max_len):
            leaves.append((tuple(tokens), score))
            return
        if len(tokens) == max_len:
            leaves.append((tuple(tokens), score))
            return
        prev = tokens[-1] if tokens else model.bos_id
        new_state, log_probs = model.step(prepared, state, np.array([prev]))
        for tok in range(log_probs.shape[1]):
            walk(new_state, tokens + [tok], score + float(log_probs[0, tok]))

    walk(model.initial_state(prepared), [], 0.0)
    return leaves


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        model, vocab = tiny_model(("aa", "bb", "cc"))
        g, feats = tiny_input()
        hyps = beam_search(model, [(g, feats, 1)], max_len=6, eos_id=model.eos_id)[0]
        prepared = model.prepare(g, feats)
        state = model.initial_state(prepared)
        tokens = []
        prev = model.bos_id
        for _ in range(6):
            state, lp = model.step(prepared, state, np.array([prev]))
            assert lp.shape == (1, len(model.vocab))
            prev = int(np.argmax(lp[0]))
            tokens.append(prev)
            if prev == model.eos_id:
                break
        assert hyps[0].tokens == tokens

    def test_sorted_non_increasing(self):
        model, _ = tiny_model(("aa", "bb", "cc"))
        g, feats = tiny_input(seed=3)
        hyps = beam_search(model, [(g, feats, 4)], max_len=5, eos_id=model.eos_id)[0]
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_exhaustive_enumeration_oracle(self):
        model, vocab = tiny_model(("aa", "bb"))  # 6 tokens total
        g, feats = tiny_input(seed=4)
        v = len(vocab)
        max_len = 2
        hyps = beam_search(model, [(g, feats, v * v)], max_len=max_len, eos_id=model.eos_id)[0]
        want = enumerate_sequences(model, g, feats, max_len, model.eos_id)
        got = {tuple(h.tokens): h.score for h in hyps}
        assert len(got) == len(want)
        for tokens, score in want:
            assert tokens in got
            assert abs(got[tokens] - score) < 1e-12

    def test_one_packed_step_per_search_step(self):
        model, _ = tiny_model(("aa", "bb", "cc"), seed=2)
        g, feats = tiny_input(seed=2)
        rows = []
        original = model.step

        def counting(prepared, state, prev):
            rows.append(np.size(prev))
            return original(prepared, state, prev)

        model.step = counting
        hyps = beam_search(model, [(g, feats, 5)], max_len=4, eos_id=None)[0]
        assert len(hyps) == 5
        assert rows == [1, 5, 5, 5]

    def test_rejects_bad_beam(self):
        model, _ = tiny_model()
        g, feats = tiny_input()
        with pytest.raises(ShapeError):
            beam_search(model, [(g, feats, 0)], max_len=3)[0]


def reference_beam_search(model, g, feats, beam, max_len, eos_id):
    """Beam search one hypothesis at a time: each unfinished hypothesis
    takes its own ``model.step`` as a pack of one row (the packed
    search's oracle).  Returns (tokens, score) pairs, best first."""
    prepared = model.prepare(g, feats)
    beams = [([], 0.0, model.initial_state(prepared), False)]
    for _ in range(max_len):
        candidates = []
        for tokens, score, state, finished in beams:
            if finished:
                candidates.append((tokens, score, state, finished))
                continue
            new_state, log_probs = model.step(prepared, state, np.array([tokens[-1] if tokens else model.bos_id]))
            for tok in np.argsort(log_probs[0])[::-1][:beam]:
                tok = int(tok)
                candidates.append((tokens + [tok], score + float(log_probs[0, tok]), new_state, tok == eos_id))
        candidates.sort(key=lambda c: c[1], reverse=True)
        beams = candidates[:beam]
        if all(c[3] for c in beams):
            break
    return [(tokens, score) for tokens, score, _, _ in beams]


GRAPHS = [
    ([O], []),
    ([O, A], [(0, 1)]),
    ([O, R, O], [(0, 1), (1, 2)]),
    ([O, A, R, O, A], [(0, 1), (0, 2), (2, 3), (3, 4)]),
]
SWITCHES = [{}, {"use_flow_attention": False}, {"use_content_attention": False}, {"use_graph_update": False}]


def random_request(model, graph, beam, seed):
    g = make_graph(*graph)
    rng = np.random.default_rng(seed)
    dim = model.config.dim
    feats = FeatureBundle(node_features=rng.normal(size=(g.n_nodes, dim)), scene_feature=rng.normal(size=dim))
    return g, feats, beam


def assert_same_hypotheses(got, want):
    """``want`` is a list of (tokens, score) pairs, best first."""
    assert [h.tokens for h in got] == [tokens for tokens, _ in want]
    for h, (_, score) in zip(got, want):
        assert abs(h.score - score) <= 1e-12 * max(1.0, abs(score))


class TestPackedBeamSearchMatchesReference:
    """One request, then packs of several graphs: each request gets what
    its own search gives, whatever its companions."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(2, 5),
        n_words=st.integers(1, 4),
        graph=st.sampled_from(GRAPHS),
        switches=st.sampled_from(SWITCHES),
        beam=st.integers(1, 6),
        max_len=st.integers(1, 5),
        use_eos=st.booleans(),
    )
    def test_same_hypotheses(self, seed, dim, n_words, graph, switches, beam, max_len, use_eos):
        vocab = Vocab.build([f"w{i}" for i in range(n_words)])
        model = CaptionModel(ModelConfig(dim=dim, n_layers=1, **switches), vocab, seed=seed)
        g = make_graph(*graph)
        rng = np.random.default_rng(seed)
        feats = FeatureBundle(node_features=rng.normal(size=(g.n_nodes, dim)), scene_feature=rng.normal(size=dim))
        eos_id = model.eos_id if use_eos else None
        got = beam_search(model, [(g, feats, beam)], max_len=max_len, eos_id=eos_id)[0]
        assert_same_hypotheses(got, reference_beam_search(model, g, feats, beam, max_len, eos_id))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.integers(2, 5),
        n_words=st.integers(1, 4),
        requests=st.lists(st.tuples(st.sampled_from(GRAPHS), st.integers(1, 6)), min_size=1, max_size=4),
        switches=st.sampled_from(SWITCHES),
        max_len=st.integers(1, 5),
        use_eos=st.booleans(),
    )
    def test_each_request_matches_its_own_search(self, seed, dim, n_words, requests, switches, max_len, use_eos):
        vocab = Vocab.build([f"w{i}" for i in range(n_words)])
        model = CaptionModel(ModelConfig(dim=dim, n_layers=1, **switches), vocab, seed=seed)
        eos_id = model.eos_id if use_eos else None
        reqs = [random_request(model, graph, beam, seed + k) for k, (graph, beam) in enumerate(requests)]
        packed = beam_search(model, reqs, max_len=max_len, eos_id=eos_id)
        assert len(packed) == len(reqs)
        for (g, feats, beam), got in zip(reqs, packed):
            assert_same_hypotheses(got, reference_beam_search(model, g, feats, beam, max_len, eos_id))
            alone = beam_search(model, [(g, feats, beam)], max_len=max_len, eos_id=eos_id)[0]
            assert_same_hypotheses(got, [(h.tokens, h.score) for h in alone])

    def test_one_packed_step_per_search_step(self):
        model, _ = tiny_model(("aa", "bb", "cc"), seed=2)
        reqs = [random_request(model, graph, beam, k) for k, (graph, beam) in enumerate(zip(GRAPHS, (1, 3, 2, 4)))]
        rows = []
        original = model.step

        def counting(prepared, state, prev):
            rows.append(np.size(prev))
            return original(prepared, state, prev)

        model.step = counting
        beam_search(model, reqs, max_len=4, eos_id=None)
        assert rows == [4, 10, 10, 10]

    def test_identical_requests_are_searched_once(self):
        model, _ = tiny_model(("aa", "bb", "cc"), seed=3)
        g, feats, _ = random_request(model, GRAPHS[2], 1, 4)
        calls = {"prepare": 0, "rows": []}
        prepare, step = model.prepare, model.step

        def counting_prepare(*args):
            calls["prepare"] += 1
            return prepare(*args)

        def counting_step(prepared, state, prev):
            calls["rows"].append(np.size(prev))
            return step(prepared, state, prev)

        model.prepare, model.step = counting_prepare, counting_step
        a, b, c = beam_search(model, [(g, feats, 1), (g, feats, 1), (g, feats, 2)], max_len=3, eos_id=None)
        # one graph prepared once; the two width-1 requests take one row
        assert calls == {"prepare": 1, "rows": [2, 3, 3]}
        assert [(h.tokens, h.score) for h in a] == [(h.tokens, h.score) for h in b]


class TestStepInvariants:
    def test_attention_laws_random_steps(self):
        model, _ = tiny_model(("aa", "bb", "cc", "dd"), d=5, seed=7)
        g, feats = tiny_input(d=5, seed=8)
        prepared = model.prepare(g, feats)
        rng = np.random.default_rng(9)
        state = model.initial_state(prepared)
        for _ in range(60):
            prev = rng.integers(len(model.vocab), size=1)
            state, modes, beta, _ = model._step(prepared, state, prev)
            alpha = state.alpha.data
            assert alpha.shape == (1, 4) and alpha.min() >= 0 and abs(alpha.sum() - 1.0) < 1e-9
            assert beta.data.shape == (1, 1) and 0.0 < beta.data[0, 0] < 1.0
            s = modes.data
            assert s.shape == (1, 3) and s.min() >= 0 and abs(s.sum() - 1.0) < 1e-9

    def test_one_step_records_one_entry_per_sub_module(self):
        # word lookup, the two cells with their input projections,
        # content and flow attention, fusion and graph update; the
        # output layer is outside the step
        model, _ = tiny_model(d=3)
        g, feats = tiny_input(d=3)
        prepared = model.prepare(g, feats)
        state = model.initial_state(prepared)
        with ad.record() as tape:
            model._step(prepared, state, np.array([model.bos_id]))
        assert len(tape) == 7

    @pytest.mark.parametrize("switch", [None, "use_content_attention", "use_flow_attention", "use_graph_update"])
    def test_loss_is_the_teacher_forced_step_log_probabilities(self, switch):
        # the loss's one output layer over the stacked states gives, per
        # token, what model.step gives stepping through the caption
        vocab = Vocab.build(["aa", "bb", "cc"])
        model = CaptionModel(ModelConfig(dim=5, n_layers=1, **({switch: False} if switch else {})), vocab, seed=11)
        g, feats = tiny_input(d=5, seed=12)
        ids = [4, 6, 5, 4]
        prepared = model.prepare(g, feats)
        state, total = model.initial_state(prepared), 0.0
        for prev, target in zip([model.bos_id] + ids, ids + [model.eos_id]):
            state, log_probs = model.step(prepared, state, np.array([prev]))
            total += log_probs[0, target]
        loss, n = model.loss(g, feats, ids)
        assert n == len(ids) + 1
        assert abs(loss.item() * n + total) <= 1e-12 * abs(total)
