"""Numeric-core tests: forward values, adjoints vs central differences
(basic and fused sub-module primitives, the fused loss, and whole
models under each ablation switch), the deferred factor-form and
row-scatter adjoints, tape isolation across threads, and the Adam
update."""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphcap import autodiff as ad
from graphcap import decoder as dec
from graphcap import encoder as enc
from graphcap.errors import NumericError, ShapeError
from graphcap.gradcheck import grad_check
from graphcap.grammar import Vocab
from graphcap.graph import Node, NodeRole, SceneGraph, build_flow, build_multirel, sample_subgraph
from graphcap.model import CaptionModel, ModelConfig
from graphcap.optim import OptimizerState, adam_step
from graphcap.worldgen import WorldConfig, full_scene_graph, gen_scene, make_triplet


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


class TestForwardValues:
    def test_softmax_symmetric(self):
        out = ad.softmax(ad.tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_relu(self):
        out = ad.relu(ad.tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_values(self):
        x = np.array([-30.0, -3.0, -1e-9, 1e-9, 3.0, 30.0])
        np.testing.assert_allclose(ad.sigmoid(ad.tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=2.3e-16)
        np.testing.assert_array_equal(ad.sigmoid(ad.tensor([-800.0, 0.0, 800.0])).data, [0.0, 0.5, 1.0])

    def test_matmul_ones(self):
        out = ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 1))))
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5)) * 10
        out = ad.softmax(ad.tensor(x)).data
        assert out.min() >= 0
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        for a in (np.ones(3), np.ones((2, 3))):  # a 1-D right operand
            with pytest.raises(ShapeError):
                ad.matmul(ad.tensor(a), ad.tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.add(ad.tensor(np.ones(3)), ad.tensor(np.ones(4)))

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            ad.log(ad.tensor([0.0]))
        with pytest.raises(NumericError):
            ad.div(ad.tensor([1.0]), ad.tensor([0.0]))

    def test_cross_entropy_of_an_underflowed_target_is_finite(self):
        # softmax of the first row gives its target exp(-1000), which
        # underflows to zero; the log-softmax does not
        logits = ad.parameter([[0.0, 1000.0, 0.0], [np.log(0.2), np.log(0.3), np.log(0.5)]])
        with ad.record() as tape:
            loss = ad.cross_entropy(logits, [0, 2])
        assert loss.item() == pytest.approx((1000.0 - np.log(0.5)) / 2, rel=1e-15)
        ad.backward(tape, loss)
        np.testing.assert_allclose(logits.grad, [[-0.5, 0.5, 0.0], [0.1, 0.15, -0.25]], atol=1e-15)

    def test_cross_entropy_rejects_bad_targets(self):
        logits = ad.tensor(np.zeros((2, 3)))
        for targets in ([0, 3], [-1, 0], [0]):
            with pytest.raises(ShapeError):
                ad.cross_entropy(logits, targets)


class TestBackward:
    def test_square(self):
        x = ad.parameter([3.0])
        with ad.record() as tape:
            loss = ad.tsum(ad.mul(x, x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sum_of_softmax_grad_vanishes(self):
        x = ad.parameter([0.3, -1.2, 2.0, 0.0])
        with ad.record() as tape:
            loss = ad.tsum(ad.softmax(x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    def test_three_layer_composite_matches_fd(self):
        rng = np.random.default_rng(7)
        w1 = ad.parameter(rng.normal(size=(4, 5)))
        w2 = ad.parameter(rng.normal(size=(5, 3)))
        w3 = ad.parameter(rng.normal(size=(3, 1)))
        x = ad.tensor(rng.normal(size=(2, 4)))

        def f():
            h1 = ad.tanh(ad.matmul(x, w1))
            h2 = ad.sigmoid(ad.matmul(h1, w2))
            return ad.tsum(ad.matmul(h2, w3))

        assert grad_check(f, [w1, w2, w3], eps=1e-5) < 1e-6

    def test_accumulation_without_reset(self):
        x = ad.parameter([2.0])
        for _ in range(2):
            with ad.record() as tape:
                loss = ad.tsum(ad.mul(x, x))
            ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])
        ad.zero_grads([x])
        with ad.record() as tape:
            loss = ad.tsum(ad.mul(x, x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with ad.record() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            ad.backward(tape, y)

    def test_loss_computed_outside_any_tape_raises(self):
        x = ad.parameter([1.0, 2.0])
        loss = ad.tsum(ad.mul(x, x))
        with ad.record() as tape:
            ad.tsum(ad.mul(x, x))
        with pytest.raises(ShapeError):
            ad.backward(tape, loss)
        assert x.grad is None

    def test_leaf_passed_as_the_loss_gets_a_gradient_of_ones(self):
        x = ad.parameter([3.0])
        with ad.record() as tape:
            ad.tsum(ad.mul(x, x))
        ad.backward(tape, x)
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_unreachable_parameter_reported(self):
        x = ad.parameter([1.0])
        unused = ad.parameter([5.0])
        with ad.record() as tape:
            a = ad.mul(x, x)
            _ = ad.mul(unused, unused)  # recorded but not feeding the loss
            loss = ad.tsum(a)
        ad.backward(tape, loss)
        assert np.all(unused.grad == 0.0) if unused.grad is not None else True
        np.testing.assert_allclose(x.grad, [2.0])

    def test_concurrent_tapes_hold_only_their_own_entries(self):
        n_threads, n_tapes, depth = 4, 150, 200
        wrong, errors = [], []

        def worker(seed):
            x0 = ad.parameter(np.full(3, 0.1 * seed))
            try:
                for _ in range(n_tapes):
                    outs = []
                    with ad.record() as tape:
                        x = x0
                        for _ in range(depth):
                            x = ad.tanh(x)
                            outs.append(x)
                        outs.append(ad.tsum(x))
                    if len(tape) != len(outs) or any(
                        e.out is not o for e, o in zip(tape.entries, outs)
                    ):
                        wrong.append(seed)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert wrong == [], f"{len(wrong)} of {n_threads * n_tapes} tapes held foreign entries"


PRIMITIVE_CASES = [
    ("matmul22", lambda t: ad.tsum(ad.tanh(ad.matmul(t, ad.tensor(_B22)))), (3, 4)),
    ("matmul12", lambda t: ad.tsum(ad.tanh(ad.matmul(t, ad.tensor(_B12)))), (4,)),
    ("add_broadcast", lambda t: ad.tsum(ad.sigmoid(ad.add(ad.tensor(_X), t))), (4,)),
    ("sub", lambda t: ad.tsum(ad.tanh(ad.sub(t, ad.tensor(_X)))), (3, 4)),
    ("mul_broadcast", lambda t: ad.tsum(ad.mul(ad.tensor(_X), t)), (3, 1)),
    ("div", lambda t: ad.tsum(ad.div(ad.tensor(_X), t)), (3, 4)),
    ("smul", lambda t: ad.tsum(ad.smul(t, 2.5)), (3, 4)),
    ("concat", lambda t: ad.tsum(ad.tanh(ad.concat([t, ad.tensor(_X)], axis=0))), (3, 4)),
    ("slice", lambda t: ad.tsum(ad.tslice(t, (slice(1, 3), slice(0, 2)))), (3, 4)),
    ("lookup", lambda t: ad.tsum(ad.tanh(ad.lookup(t, [0, 2, 2]))), (3, 4)),
    ("tanh", lambda t: ad.tsum(ad.tanh(t)), (3, 4)),
    ("sigmoid", lambda t: ad.tsum(ad.sigmoid(t)), (3, 4)),
    ("relu", lambda t: ad.tsum(ad.relu(t)), (3, 4)),
    ("softmax", lambda t: ad.tsum(ad.mul(ad.softmax(t), ad.tensor(_X))), (3, 4)),
    ("log", lambda t: ad.tsum(ad.log(ad.sigmoid(t))), (3, 4)),
    ("sum_axis", lambda t: ad.tsum(ad.tanh(ad.tsum(t, axis=0))), (3, 4)),
    ("mean_axis", lambda t: ad.tsum(ad.tanh(ad.tmean(t, axis=1))), (3, 4)),
    ("mean_all", lambda t: ad.tmean(ad.mul(t, t)), (3, 4)),
    ("reshape", lambda t: ad.tsum(ad.tanh(ad.reshape(t, (4, 3)))), (3, 4)),
]

_rng = np.random.default_rng(11)
_B22 = _rng.normal(size=(4, 2))
_B12 = _rng.normal(size=(4, 3))
_X = _rng.normal(size=(3, 4))


class TestFactorForm:
    """Weight adjoints deferred as factor pairs and row scatters, made
    into one product per leaf when backward ends."""

    def test_weight_shared_by_many_matmuls_gets_the_outer_product_sum(self):
        rng = np.random.default_rng(5)
        w = ad.parameter(rng.normal(size=(4, 3)))
        xs = [rng.normal(size=4) for _ in range(6)] + [rng.normal(size=(2, 4)), rng.normal(size=(3, 4))]
        upstream = [rng.normal(size=(3,) if x.ndim == 1 else (x.shape[0], 3)) for x in xs]
        with ad.record() as tape:
            terms = [ad.tsum(ad.mul(ad.matmul(ad.tensor(x), w), ad.tensor(u))) for x, u in zip(xs, upstream)]
            loss = terms[0]
            for t in terms[1:]:
                loss = ad.add(loss, t)
        ad.backward(tape, loss)
        expected = sum(np.outer(x, u) if x.ndim == 1 else x.T @ u for x, u in zip(xs, upstream))
        assert np.abs(w.grad - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_deferred_adjoints_reaching_produced_tensors(self):
        # tanh(w) is produced by the tape, so the factor pairs of both
        # matmul forms and the row scatter of tslice are made dense there
        rng = np.random.default_rng(6)
        w = ad.parameter(rng.normal(size=(4, 3)))
        x, v = ad.tensor(rng.normal(size=(2, 4))), ad.tensor(rng.normal(size=4))

        def f():
            wt = ad.tanh(w)
            a = ad.tsum(ad.tanh(ad.matmul(x, wt)))
            b = ad.matmul(v, wt)
            return ad.add(ad.add(a, ad.tsum(ad.mul(b, b))), ad.tsum(ad.tanh(ad.tslice(wt, 1))))

        assert grad_check(f, [w], eps=1e-6) < 1e-8

    def test_batched_lookup_sums_the_rows_of_a_repeated_id(self):
        # beam rows often share their previous token
        rng = np.random.default_rng(9)
        emb = ad.parameter(rng.normal(size=(5, 3)))
        upstream = rng.normal(size=(3, 3))
        with ad.record() as tape:
            rows = ad.tslice(emb, np.array([2, 4, 2]))
            loss = ad.tsum(ad.mul(rows, ad.tensor(upstream)))
        ad.backward(tape, loss)
        expected = np.zeros((5, 3))
        expected[2] = upstream[0] + upstream[2]
        expected[4] = upstream[1]
        np.testing.assert_array_equal(emb.grad, expected)
        # the same through a tensor the tape produced
        assert grad_check(lambda: ad.tsum(ad.tanh(ad.tslice(ad.tanh(emb), np.array([1, 1, 3])))), [emb]) < 1e-8

    def test_two_backward_calls_accumulate(self):
        rng = np.random.default_rng(8)
        emb = ad.parameter(rng.normal(size=(5, 3)))
        w = ad.parameter(rng.normal(size=(3, 2)))
        b = ad.parameter(rng.normal(size=2))

        def run():
            with ad.record() as tape:
                h = ad.add(ad.matmul(ad.tslice(emb, 2), w), b)
                h = ad.add(ad.matmul(ad.tanh(ad.tslice(emb, 4)), w), h)
                loss = ad.tsum(ad.tanh(h))
            ad.backward(tape, loss)
            return [p.grad.copy() for p in (emb, w, b)]

        ad.zero_grads([emb, w, b])
        once = run()
        twice = run()
        for g1, g2 in zip(once, twice):
            np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=0.0)
        assert np.all(once[0][[0, 1, 3]] == 0.0)

    def test_tier1_loss_tape_has_60_entries(self):
        # the instance of test_01_gradient_fidelity: 9 encoder entries
        # (2 R-GCN layers), one lifting the encoder outputs to a pack of
        # one row, 7 decode steps of 7 entries, and one entry for the
        # output layer and the loss
        world = WorldConfig(dim=16, n_object_classes=2, n_attr_classes=2, n_rel_classes=2)
        rng = np.random.default_rng(1)
        scene = gen_scene(world, rng)
        g_full = full_scene_graph(scene)
        sub = next(c for c in (sample_subgraph(g_full, rng) for _ in range(1000)) if c.n_nodes == 5)
        feats, graph, caption = make_triplet(scene, sub, world)
        vocab = world.grammar().build_vocab()
        ids = (vocab.encode(caption) + [vocab.unk_id] * 6)[:6]
        model = CaptionModel(ModelConfig(dim=16, n_layers=2), vocab, seed=1)
        with ad.record() as tape:
            model.loss(graph, feats, ids)
        assert len(tape) == 60


class TestAdjointsMatchFiniteDifferences:
    """Every registered primitive agrees with central differences to 1e-6."""

    @pytest.mark.parametrize("name,f,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive(self, name, f, shape):
        rng = np.random.default_rng(hash(name) % 2**32)
        data = rng.normal(size=shape)
        data[np.abs(data) < 0.05] += 0.1  # stay clear of relu kinks
        if name == "div":
            data = np.sign(data) * (np.abs(data) + 0.5)
        t = ad.parameter(data)
        err = grad_check(lambda: f(t), [t], eps=1e-5)
        assert err < 1e-6, f"{name}: {err}"


def chain_graph():
    roles = [NodeRole.OBJECT, NodeRole.ATTRIBUTE, NodeRole.RELATIONSHIP, NodeRole.OBJECT]
    nodes = tuple(Node(id=i, role=r, region=i) for i, r in enumerate(roles))
    return SceneGraph(nodes=nodes, edges=((0, 1), (0, 2), (2, 3)))


def weighted_sum(outputs, rng):
    """A scalar reached by each of ``outputs`` through fixed random weights."""
    total = None
    for o in outputs:
        term = ad.tsum(ad.mul(o, ad.tensor(rng.normal(size=o.shape))))
        total = term if total is None else ad.add(total, term)
    return total


def _chain_flows(k):
    """The chain graph's flow matrix for each of ``k`` rows."""
    return np.repeat(build_flow(chain_graph()).matrix[None], k, axis=0)


def _lstm(rng, d=3, k=1):
    cell = dec.LstmParams(*(ad.parameter(rng.normal(size=s)) for s in ((2 * d, 4 * d), (d, 4 * d), (4 * d,))))
    x, h, c = (ad.parameter(rng.normal(size=(k, n))) for n in (2 * d, d, d))
    return lambda: dec.lstm_step(cell, [x], h, c), [x, h, c, cell.w_ih, cell.w_hh, cell.bias]


def _lstm_parts(rng, d=3, k=1):
    # three input parts: a tensor of the state's rows, rows looked up in
    # a table (row 2 twice when K=3) and another tensor of rows
    cell = dec.LstmParams(*(ad.parameter(rng.normal(size=s)) for s in ((3 * d + 1, 4 * d), (d, 4 * d), (4 * d,))))
    scene, table = ad.parameter(rng.normal(size=(k, d - 1))), ad.parameter(rng.normal(size=(4, d)))
    x, h, c = (ad.parameter(rng.normal(size=(k, n))) for n in (d + 2, d, d))
    key = np.array([2, 0, 2])[:k]
    return (
        lambda: dec.lstm_step(cell, [scene, (table, key), x], h, c),
        [scene, table, x, h, c, cell.w_ih, cell.w_hh, cell.bias],
    )


def _query(rng, d=3, k=1):
    # one scene vector per row
    p = dec.init_decoder_params(d, 5, rng)
    state = dec.init_state(ad.tensor(rng.normal(size=(k, 5, d))), _chain_flows(k))
    h_lang, h_att, c_att, w_prev = (ad.parameter(rng.normal(size=(k, d))) for _ in range(4))
    state = replace(state, h_lang=h_lang, h_att=h_att, c_att=c_att)
    fused = ad.parameter(rng.normal(size=(k, d)))
    return (
        lambda: dec.attention_query_step(p, state, fused, w_prev),
        [fused, w_prev, h_lang, h_att, c_att, p.att_cell.w_ih, p.att_cell.w_hh],
    )


def _content(rng, d=3, k=1):
    p = dec.init_decoder_params(d, 5, rng)
    x, h = ad.parameter(rng.normal(size=(k, 4, d))), ad.parameter(rng.normal(size=(k, d)))
    mask = np.zeros((k, 4))
    return lambda: (dec.content_attention(p, x, h, mask),), [x, h, p.content_wx, p.content_wh, p.content_score]


def _flow(rng, d=3, flows=None, k=1, raw=None):
    p = dec.init_decoder_params(d, 5, rng)
    flows = _chain_flows(k) if flows is None else flows
    if raw is None:
        raw = rng.random((k, flows.shape[-1])) + 0.1
    alpha = ad.parameter(raw / raw.sum(axis=-1, keepdims=True))
    h, z = (ad.parameter(rng.normal(size=(k, d))) for _ in range(2))
    return lambda: dec.flow_attention(p, flows, alpha, h, z), [alpha, h, z, p.flow_wh, p.flow_wz, p.flow_mode]


def _one_edge(k=1):
    """The flow matrix of one edge 0 -> 1 on 4 slots, for each of ``k``
    rows: the 1-hop mass is alpha[0] and the 2-hop mass vanishes."""
    m = np.zeros((k, 4, 4))
    m[:, 1, 0] = 1.0
    return m


def _nilpotent_flow(rng):
    return _flow(rng, flows=_one_edge())


def _no_flow(rng):
    # no edges: both transports vanish and keep the previous attention
    return _flow(rng, flows=np.zeros((1, 4, 4)))


def _flow_rows_vanish(rng):
    # one edge 0 -> 1 again, with rows that differ in alpha[0]: the 1-hop
    # mass of row 0 vanishes and that of rows 1 and 2 does not.  alpha is
    # left out of the check, since a finite step in alpha[0] of row 0
    # would cross the threshold; TestBatchedRowsMatchUnbatched covers it.
    raw = np.array([[0.0, 0.3, 0.3, 0.4], [0.5, 0.2, 0.2, 0.1], [0.2, 0.4, 0.1, 0.3]])
    fn, params = _flow(rng, flows=_one_edge(3), k=3, raw=raw)
    return fn, params[1:]


def _fuse(rng, d=3, k=1):
    p = dec.init_decoder_params(d, 5, rng)
    ac, af = (ad.parameter(rng.dirichlet(np.ones(4), size=k)) for _ in range(2))
    h, z = (ad.parameter(rng.normal(size=(k, d))) for _ in range(2))
    x = ad.parameter(rng.normal(size=(k, 4, d)))
    return (
        lambda: dec.fuse_and_context(p, ac, af, h, z, x),
        [ac, af, h, z, x, p.fuse_wh, p.fuse_wz, p.fuse_gate],
    )


def _context_only(rng, d=3, k=1):
    # one attention branch off: the context alone is the primitive
    x = ad.parameter(rng.normal(size=(k, 4, d)))
    alpha, h, z = ad.parameter(rng.dirichlet(np.ones(4), size=k)), ad.tensor(np.zeros((k, d))), ad.tensor(np.zeros((k, d)))
    p = dec.init_decoder_params(d, 5, rng)
    return lambda: dec.fuse_and_context(p, alpha, None, h, z, x)[1:2], [alpha, x]


def _language(rng, d=3, k=1):
    p = dec.init_decoder_params(d, 5, rng)
    state = dec.init_state(ad.tensor(rng.normal(size=(k, 5, d))), _chain_flows(k))
    h_lang, c_lang, ctx, hq = (ad.parameter(rng.normal(size=(k, d))) for _ in range(4))
    state = replace(state, h_lang=h_lang, c_lang=c_lang)
    cell = p.lang_cell
    return (
        lambda: dec.language_step(p, state, ctx, hq),
        [h_lang, c_lang, ctx, hq, cell.w_ih, cell.w_hh, cell.bias],
    )


def _output_loss(rng, d=3, vocab=5):
    # four steps' language states; target 3 twice
    p = dec.init_decoder_params(d, vocab, rng)
    p.b_out = ad.parameter(rng.normal(size=vocab))
    h_rows = [ad.parameter(rng.normal(size=(1, d))) for _ in range(4)]
    return lambda: (dec.output_loss(p, h_rows, [3, 0, 3, 4]),), h_rows + [p.w_out, p.b_out]


def _cross_entropy(rng, vocab=5):
    logits = ad.parameter(rng.normal(size=(3, vocab)) * 3.0)
    return lambda: (ad.cross_entropy(logits, [1, 4, 1]),), [logits]


def _graph_update(rng, d=3, k=1):
    p = dec.init_decoder_params(d, 5, rng)
    x, h = ad.parameter(rng.normal(size=(k, 4, d))), ad.parameter(rng.normal(size=(k, d)))
    alpha = ad.parameter(rng.dirichlet(np.ones(4), size=k))
    return (
        lambda: dec.graph_update(p, x, h, alpha),
        [x, h, alpha, p.sentinel_w, p.sentinel_b, p.erase_w, p.erase_b, p.add_w, p.add_b],
    )


def _role_embed(rng, d=3):
    g = chain_graph()
    params = enc.init_encoder_params(d, 1, 2, rng)
    feats = enc.FeatureBundle(node_features=rng.normal(size=(4, d)), scene_feature=rng.normal(size=d))
    return lambda: (enc.role_embed(g, feats, params),), [params.role_table, params.pos_table]


def _mrgcn(rng, d=3):
    g = chain_graph()
    layer = enc.init_encoder_params(d, 1, 2, rng).layers[0]
    x = ad.parameter(rng.normal(size=(4, d)))
    mrg = build_multirel(g)
    weights = [layer.w_self] + [layer.w_rel[k] for k in enc.aggregation_matrices(mrg)]
    return lambda: (enc.mrgcn_layer(mrg, x, layer),), [x] + weights


def _graph(roles, edges):
    return SceneGraph(nodes=tuple(Node(id=i, role=r, region=i) for i, r in enumerate(roles)), edges=edges)


def _pack_flows():
    """The flow matrices of a pack of three graphs with 5, 3 and 2
    slots, zero-padded to 5 slots, and the pack's own slots (true) as a
    boolean mask."""
    graphs = [chain_graph(), _graph([NodeRole.OBJECT, NodeRole.ATTRIBUTE], ((0, 1),)), _graph([NodeRole.OBJECT], ())]
    m = np.zeros((3, 5, 5))
    for r, fg in enumerate(build_flow(g) for g in graphs):
        m[r, : fg.n_slots, : fg.n_slots] = fg.matrix
    return m, np.arange(5) < np.array([5, 3, 2])[:, None]


def _padded(mask, values):
    """``values`` with the slots past each row's own set to zero."""
    return values * mask[..., None] if values.ndim > mask.ndim else values * mask


def _own_dist(rng, mask):
    """One attention distribution per row over that row's own slots."""
    raw = _padded(mask, rng.random(mask.shape) + 0.1)
    return raw / raw.sum(axis=-1, keepdims=True)


def _content_pack(rng, d=3):
    p = dec.init_decoder_params(d, 5, rng)
    _, mask = _pack_flows()
    x, h = ad.parameter(_padded(mask, rng.normal(size=(3, 5, d)))), ad.parameter(rng.normal(size=(3, d)))
    bias = np.where(mask, 0.0, -np.inf)
    return lambda: (dec.content_attention(p, x, h, bias),), [x, h, p.content_wx, p.content_wh, p.content_score]


def _flow_pack(rng):
    m, mask = _pack_flows()
    return _flow(rng, flows=m, k=3, raw=_own_dist(rng, mask))


def _flow_pack_one_row_vanishes(rng):
    # row 1 gets the one-edge matrix 0 -> 1 on its 3 slots and no mass
    # on slot 0, so its 1-hop mass vanishes; alpha is left out of the
    # check as in _flow_rows_vanish
    m, mask = _pack_flows()
    m[1] = 0.0
    m[1, 1, 0] = 1.0
    raw = _own_dist(rng, mask)
    raw[1] = [0.0, 0.5, 0.5, 0.0, 0.0]
    fn, params = _flow(rng, flows=m, k=3, raw=raw)
    return fn, params[1:]


def _fuse_pack(rng, d=3):
    p = dec.init_decoder_params(d, 5, rng)
    _, mask = _pack_flows()
    ac, af = (ad.parameter(_own_dist(rng, mask)) for _ in range(2))
    h, z = (ad.parameter(rng.normal(size=(3, d))) for _ in range(2))
    x = ad.parameter(_padded(mask, rng.normal(size=(3, 5, d))))
    return (
        lambda: dec.fuse_and_context(p, ac, af, h, z, x),
        [ac, af, h, z, x, p.fuse_wh, p.fuse_wz, p.fuse_gate],
    )


def _graph_update_pack(rng, d=3):
    p = dec.init_decoder_params(d, 5, rng)
    _, mask = _pack_flows()
    x, h = ad.parameter(_padded(mask, rng.normal(size=(3, 5, d)))), ad.parameter(rng.normal(size=(3, d)))
    alpha = ad.parameter(_own_dist(rng, mask))
    return (
        lambda: dec.graph_update(p, x, h, alpha),
        [x, h, alpha, p.sentinel_w, p.sentinel_b, p.erase_w, p.erase_b, p.add_w, p.add_b],
    )


# name -> (maker of (forward, inputs to check), number of outputs); the
# decoder primitives run on K = 1 rows
FUSED = {
    "lstm_cell": (_lstm, 2),
    "lstm_cell_parts": (_lstm_parts, 2),
    "attention_query": (_query, 2),
    "content_attention": (_content, 1),
    "flow_attention": (_flow, 2),
    "flow_attention_two_hop_vanishes": (_nilpotent_flow, 2),
    "flow_attention_no_transport": (_no_flow, 2),
    "fuse_and_context": (_fuse, 3),
    "attended_context": (_context_only, 1),
    "language_step": (_language, 2),
    "output_loss": (_output_loss, 1),
    "graph_update": (_graph_update, 2),
    "role_embed": (_role_embed, 1),
    "mrgcn_layer": (_mrgcn, 1),
    "cross_entropy": (_cross_entropy, 1),
}

# the decoder primitives again, on K = 3 rows
BATCHED = {
    "lstm_cell": _lstm,
    "lstm_cell_parts": _lstm_parts,
    "attention_query": _query,
    "content_attention": _content,
    "flow_attention": _flow,
    "fuse_and_context": _fuse,
    "attended_context": _context_only,
    "language_step": _language,
    "graph_update": _graph_update,
}
FUSED.update(
    {f"{name}_k3": (lambda rng, make=make: make(rng, k=3), FUSED[name][1]) for name, make in BATCHED.items()}
)
FUSED["flow_attention_k3_one_row_vanishes"] = (_flow_rows_vanish, 2)

# a pack of three graphs of 5, 3 and 2 slots on K = 3 rows: the masked
# content attention, one scene vector and one flow matrix per row, and
# padded slots in the fusion and the graph update
FUSED.update(
    {
        "content_attention_pack": (_content_pack, 1),
        "attention_query_pack": (lambda rng: _query(rng, k=3), 2),
        "flow_attention_pack": (_flow_pack, 2),
        "flow_attention_pack_one_row_vanishes": (_flow_pack_one_row_vanishes, 2),
        "fuse_and_context_pack": (_fuse_pack, 3),
        "graph_update_pack": (_graph_update_pack, 2),
    }
)

# every output together, then each output of a multi-output primitive
# alone (the others reach the backward pass with zero adjoints)
FUSED_CASES = [
    (name, only) for name, (_, n) in FUSED.items() for only in [None] + (list(range(n)) if n > 1 else [])
]


class TestFusedAdjointsMatchFiniteDifferences:
    @pytest.mark.parametrize(
        "name,only", FUSED_CASES, ids=[f"{n}-{'all' if k is None else f'out{k}'}" for n, k in FUSED_CASES]
    )
    def test_fused(self, name, only):
        rng = np.random.default_rng(sum(map(ord, name)))
        fn, params = FUSED[name][0](rng)
        weights_seed = int(rng.integers(2**32))

        def loss():
            outs = fn()
            if only is not None:
                outs = [outs[only]]
            return weighted_sum(outs, np.random.default_rng(weights_seed))

        err = grad_check(loss, params, eps=1e-6)
        assert err < 1e-6, f"{name}: {err}"

    def test_vanished_transport_keeps_previous_attention(self):
        fn, params = _no_flow(np.random.default_rng(1))
        total, _ = fn()
        np.testing.assert_allclose(total.data, params[0].data, atol=1e-15)


class TestBatchedRowsMatchUnbatched:
    def test_flow_attention_with_a_row_whose_transport_vanishes(self):
        # row 0 keeps its previous attention on the 1-hop transport, rows
        # 1 and 2 do not; each row's outputs and adjoints are those of a
        # K = 1 call on that row alone
        rng = np.random.default_rng(2)
        p = dec.init_decoder_params(3, 5, rng)
        flows = _one_edge(3)
        alpha = np.array([[0.0, 0.3, 0.3, 0.4], [0.5, 0.2, 0.2, 0.1], [0.2, 0.4, 0.1, 0.3]])
        h, z = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        weights = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
        weight_params = [p.flow_wh, p.flow_wz, p.flow_mode]

        def run(rows):
            ad.zero_grads(weight_params)
            inputs = [ad.parameter(v[rows]) for v in (alpha, h, z)]
            with ad.record() as tape:
                outs = dec.flow_attention(p, flows[rows], *inputs)
                total = None
                for o, w in zip(outs, weights):
                    term = ad.tsum(ad.mul(o, ad.tensor(w[rows])))
                    total = term if total is None else ad.add(total, term)
            ad.backward(tape, total)
            return [o.data for o in outs], [t.grad for t in inputs], [w.grad.copy() for w in weight_params]

        outs, grads, wgrads = run(slice(None))
        row_wgrads = [0.0] * 3
        for r in range(3):
            r_outs, r_grads, r_wgrads = run(slice(r, r + 1))
            for got, want in zip([o[r] for o in outs] + [g[r] for g in grads], r_outs + r_grads):
                np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=1e-15)
            row_wgrads = [a + b for a, b in zip(row_wgrads, r_wgrads)]
        for got, want in zip(wgrads, row_wgrads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestPackRowsMatchTheirOwnGraphs:
    def test_attention_of_each_row(self):
        # each row of a pack computes on its own slots what a K = 1 call
        # on its own graph computes, and exactly zero past them
        rng = np.random.default_rng(3)
        p = dec.init_decoder_params(3, 5, rng)
        m, mask = _pack_flows()
        x = _padded(mask, rng.normal(size=(3, 5, 3)))
        alpha = _own_dist(rng, mask)
        h, z = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        content = dec.content_attention(p, ad.tensor(x), ad.tensor(h), np.where(mask, 0.0, -np.inf)).data
        flow = dec.flow_attention(p, m, ad.tensor(alpha), ad.tensor(h), ad.tensor(z))[0].data
        for r, n in enumerate([5, 3, 2]):
            row = slice(r, r + 1)
            own_content = dec.content_attention(p, ad.tensor(x[row, :n]), ad.tensor(h[row]), np.zeros((1, n))).data
            own_flow = dec.flow_attention(p, m[row, :n, :n], ad.tensor(alpha[row, :n]), ad.tensor(h[row]), ad.tensor(z[row]))
            for got, want in ((content[r], own_content[0]), (flow[r], own_flow[0].data[0])):
                np.testing.assert_allclose(got[:n], want, rtol=1e-12, atol=1e-15)
                assert not got[n:].any()


class TestModelGradCheckPerAblation:
    """A whole d=2 model on a 3-token caption, with every component on
    or with one switch off: the folded cells and the output-and-loss
    primitive in place."""

    @pytest.mark.parametrize(
        "switch",
        [None, "use_role_embed", "use_mrgcn", "use_content_attention", "use_flow_attention", "use_graph_update"],
    )
    def test_grad_check(self, switch):
        rng = np.random.default_rng(3)
        switches = {switch: False} if switch else {}
        model = CaptionModel(ModelConfig(dim=2, n_layers=1, **switches), Vocab.build(["aa", "bb"]), seed=2)
        feats = enc.FeatureBundle(node_features=rng.normal(size=(4, 2)), scene_feature=rng.normal(size=2))
        g = chain_graph()
        err = grad_check(lambda: model.loss(g, feats, [4, 5, 4])[0], model.parameters(), eps=1e-6)
        assert err < 1e-6, f"{switch} off: {err}"


# The tier-1 instance of test_01_gradient_fidelity; prints its loss and
# the sha256 of its full gradient.  Argument "hide" makes scipy
# unimportable first.
_TIER1_GRADIENT = """
import hashlib, sys
if sys.argv[1] == "hide":
    sys.modules["scipy"] = None
import numpy as np
from graphcap import autodiff as ad
from graphcap.graph import sample_subgraph
from graphcap.model import CaptionModel, ModelConfig
from graphcap.worldgen import WorldConfig, full_scene_graph, gen_scene, make_triplet

world = WorldConfig(dim=16, n_object_classes=2, n_attr_classes=2, n_rel_classes=2)
rng = np.random.default_rng(1)
scene = gen_scene(world, rng)
full = full_scene_graph(scene)
sub = next(g for g in (sample_subgraph(full, rng) for _ in range(1000)) if g.n_nodes == 5)
feats, graph, caption = make_triplet(scene, sub, world)
vocab = world.grammar().build_vocab()
ids = (vocab.encode(caption) + [vocab.unk_id] * 6)[:6]
model = CaptionModel(ModelConfig(dim=16, n_layers=2), vocab, seed=1)
params = model.parameters()
ad.zero_grads(params)
with ad.record() as tape:
    loss = model.loss(graph, feats, ids)[0]
ad.backward(tape, loss)
digest = hashlib.sha256()
for p in params:
    digest.update(p.grad.tobytes())
print(repr(loss.item()), digest.hexdigest())
"""


class TestOneSigmoid:
    def test_gradient_does_not_depend_on_scipy(self):
        src = str(Path(ad.__file__).resolve().parents[1])

        def run(mode):
            out = subprocess.run(
                [sys.executable, "-c", _TIER1_GRADIENT, mode],
                capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
            )
            assert out.returncode == 0, out.stderr
            return out.stdout

        assert run("hide") == run("keep")


class TestGradCheckContract:
    def test_linear_is_exact(self):
        x = ad.parameter(np.arange(5.0))
        err = grad_check(lambda: ad.tsum(x), [x])
        assert err < 1e-10

    def test_eps_out_of_range(self):
        x = ad.parameter([1.0])
        with pytest.raises(ShapeError):
            grad_check(lambda: ad.tsum(x), [x], eps=0.5)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = ad.parameter([1.0, -2.0])
        st = OptimizerState(lr=0.1)
        adam_step(st, [p], [np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat=g, v_hat=g^2, so the move is
        # lr * g / (|g| + eps) ~= lr * sign(g)
        p = ad.parameter([0.0, 0.0])
        st = OptimizerState(lr=0.01)
        g = np.array([0.3, -4.0])
        adam_step(st, [p], [g])
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)
        assert np.sign(p.data[0]) == -1 and np.sign(p.data[1]) == 1

    def test_lr_zero_keeps_params(self):
        p = ad.parameter([1.0, 2.0])
        st = OptimizerState(lr=0.0)
        adam_step(st, [p], [np.array([5.0, -1.0])])
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert st.step_count == 1

    def test_shape_mismatch(self):
        p = ad.parameter([1.0, 2.0])
        st = OptimizerState()
        with pytest.raises(ShapeError):
            adam_step(st, [p], [np.zeros(3)])
