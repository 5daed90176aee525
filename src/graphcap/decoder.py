"""Graph-aware language decoder.

Two stacked recurrent cells drive generation: the query cell consumes
the fused scene vector, the previous word, and the previous language
state to produce an attention query; the language cell consumes the
attended context and the query to produce the word distribution.

Attention over the node slots (start slot 0 plus one slot per graph
node) blends two scores: a content score from query/node relevance and
a flow score that transports the previous attention 0, 1, or 2 steps
along the flow graph, gated by a learned 3-way mode distribution.  A
sigmoid gate fuses the two.  After each emitted word, every slot is
rewritten by an erase-then-add update scaled by its attention mass and
a scalar sentinel (so function words leave the graph memory untouched).

Each sub-module (LSTM cell, content attention, flow attention, the
fusion gate with its context, the output layer and the graph update) is
one autodiff primitive with a hand-written adjoint, so a recorded decode
is differentiable end to end.  Weight adjoints are returned as factor
pairs ``(x, g)`` (see :mod:`graphcap.autodiff`), which the backward pass
stacks over the decode steps into one product per weight.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _sigmoid_raw, _softmax_raw
from .errors import ShapeError
from .graph import FlowGraph

__all__ = [
    "LstmParams",
    "DecoderParams",
    "DecoderState",
    "init_state",
    "lstm_step",
    "attention_query_step",
    "content_attention",
    "flow_attention",
    "fuse_and_context",
    "language_step",
    "graph_update",
    "Hypothesis",
    "beam_search",
]


@dataclass
class LstmParams:
    w_ih: Tensor  # (n_in, 4d) gate order i, f, g, o
    w_hh: Tensor  # (d, 4d)
    bias: Tensor  # (4d,)

    @property
    def hidden(self) -> int:
        return self.w_hh.data.shape[0]

    def named(self, prefix: str):
        yield f"{prefix}.w_ih", self.w_ih
        yield f"{prefix}.w_hh", self.w_hh
        yield f"{prefix}.bias", self.bias


@dataclass
class DecoderParams:
    word_emb: Tensor  # (vocab, d)
    att_cell: LstmParams  # input [fused; word; h_lang] = 3d
    lang_cell: LstmParams  # input [context; h_att] = 2d
    w_out: Tensor  # (d, vocab)
    b_out: Tensor  # (vocab,)
    content_wx: Tensor  # (d, d)
    content_wh: Tensor  # (d, d)
    content_score: Tensor  # (d,)
    flow_wh: Tensor  # (d, d)
    flow_wz: Tensor  # (d, d)
    flow_mode: Tensor  # (d, 3)
    fuse_wh: Tensor  # (d, d)
    fuse_wz: Tensor  # (d, d)
    fuse_gate: Tensor  # (d,)
    sentinel_w: Tensor  # (d,)
    sentinel_b: Tensor  # (1,)
    erase_w: Tensor  # (2d, d)
    erase_b: Tensor  # (d,)
    add_w: Tensor  # (2d, d)
    add_b: Tensor  # (d,)

    @property
    def dim(self) -> int:
        return self.word_emb.data.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.word_emb.data.shape[0]

    def named(self, prefix: str = "decoder"):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, LstmParams):
                yield from value.named(f"{prefix}.{f.name}")
            else:
                yield f"{prefix}.{f.name}", value


def init_decoder_params(dim: int, vocab_size: int, rng: np.random.Generator) -> DecoderParams:
    def mat(n_in, n_out):
        return ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))

    def vec(n):
        return ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(n), size=(n,)))

    def cell(n_in):
        return LstmParams(w_ih=mat(n_in, 4 * dim), w_hh=mat(dim, 4 * dim), bias=ad.parameter(np.zeros(4 * dim)))

    return DecoderParams(
        word_emb=ad.parameter(rng.normal(0.0, 0.1, size=(vocab_size, dim))),
        att_cell=cell(3 * dim),
        lang_cell=cell(2 * dim),
        w_out=mat(dim, vocab_size),
        b_out=ad.parameter(np.zeros(vocab_size)),
        content_wx=mat(dim, dim),
        content_wh=mat(dim, dim),
        content_score=vec(dim),
        flow_wh=mat(dim, dim),
        flow_wz=mat(dim, dim),
        flow_mode=mat(dim, 3),
        fuse_wh=mat(dim, dim),
        fuse_wz=mat(dim, dim),
        fuse_gate=vec(dim),
        sentinel_w=vec(dim),
        sentinel_b=ad.parameter(np.zeros(1)),
        erase_w=mat(2 * dim, dim),
        erase_b=ad.parameter(np.zeros(dim)),
        add_w=mat(2 * dim, dim),
        add_b=ad.parameter(np.zeros(dim)),
    )


@dataclass
class DecoderState:
    """Evolving per-step state.  Instances are never mutated; each step
    returns a fresh state, which keeps beam hypotheses isolated."""

    x_nodes: Tensor  # (n_slots, d)
    h_att: Tensor
    c_att: Tensor
    h_lang: Tensor
    c_lang: Tensor
    alpha: Tensor  # (n_slots,)
    z: Tensor  # (d,)
    t: int


def init_state(x_enc: Tensor, fg: FlowGraph) -> DecoderState:
    """Attention starts one-hot on the start slot; recurrent states and
    the context vector start at zero."""
    n_slots, dim = x_enc.data.shape
    if fg.n_slots != n_slots:
        raise ShapeError(f"flow graph has {fg.n_slots} slots, embeddings {n_slots}")
    alpha0 = np.zeros(n_slots)
    alpha0[0] = 1.0
    zeros = np.zeros(dim)
    return DecoderState(
        x_nodes=x_enc,
        h_att=ad.tensor(zeros),
        c_att=ad.tensor(zeros),
        h_lang=ad.tensor(zeros),
        c_lang=ad.tensor(zeros),
        alpha=ad.tensor(alpha0),
        z=ad.tensor(zeros),
        t=1,
    )


def lstm_step(cell: LstmParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell in the fused-gate form of Appleyard et al.
    (arXiv 1604.01946): the input projection, then a single primitive
    for the recurrent product, the four gates (order i, f, o, g) and
    the new (h, c)."""
    xw = ad.matmul(x, cell.w_ih)
    d = cell.hidden
    w_hh, bias = cell.w_hh, cell.bias
    gates = xw.data + h.data @ w_hh.data + bias.data
    ifo = _sigmoid_raw(gates[: 3 * d])
    i, f, o = ifo[:d], ifo[d : 2 * d], ifo[2 * d :]
    g = np.tanh(gates[3 * d :])
    c_new = f * c.data + i * g
    tanh_c = np.tanh(c_new)

    def bwd(gh, gc):
        gc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        dgates = np.concatenate([gc * g, gc * c.data, gh * tanh_c, gc * i])
        dgates[: 3 * d] *= ifo * (1.0 - ifo)
        dgates[3 * d :] *= 1.0 - g * g
        return dgates, w_hh.data @ dgates, gc * f, (h.data, dgates), dgates

    return ad.primitive((xw, h, c, w_hh, bias), (o * tanh_c, c_new), bwd)


def attention_query_step(
    params: DecoderParams, state: DecoderState, fused: Tensor, w_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """Query cell: consumes [fused scene; previous word; previous
    language hidden] and advances the query LSTM."""
    x = ad.concat([fused, w_prev, state.h_lang], axis=0)
    return lstm_step(params.att_cell, x, state.h_att, state.c_att)


def content_attention(params: DecoderParams, x_nodes: Tensor, h_query: Tensor) -> Tensor:
    """softmax over slots of w_c . tanh(X W_x + h W_h), as one primitive."""
    wx, wh, ws = params.content_wx, params.content_wh, params.content_score
    hidden = np.tanh(x_nodes.data @ wx.data + h_query.data @ wh.data)
    alpha = _softmax_raw(hidden @ ws.data)

    def bwd(g):
        dscores = alpha * (g - g @ alpha)
        dpre = np.outer(dscores, ws.data) * (1.0 - hidden * hidden)
        dh = dpre.sum(axis=0)
        return (
            dpre @ wx.data.T,
            wh.data @ dh,
            (x_nodes.data, dpre),
            (h_query.data, dh),
            (hidden, dscores[:, None]),
        )

    return ad.primitive((x_nodes, h_query, wx, wh, ws), alpha, bwd)


def _renormalize(moved: np.ndarray, fallback: np.ndarray):
    """Scale back to a distribution, keeping the previous attention when
    the transported mass vanishes.  Returns (distribution, mass), with
    mass None on the fallback."""
    mass = moved.sum()
    if mass < 1e-12:
        return fallback, None
    return moved / mass, mass


def _renormalize_adjoint(g: np.ndarray, dist: np.ndarray, mass) -> np.ndarray:
    """Adjoint of ``moved / moved.sum()`` with respect to ``moved``."""
    return (g - g @ dist) / mass


def flow_attention(
    params: DecoderParams,
    fg: FlowGraph,
    alpha_prev: Tensor,
    h_query: Tensor,
    z_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """Returns (flow attention, mode distribution s over stay/1-hop/2-hop),
    both outputs of one primitive.

    The three transports share the matrix products: the un-normalized
    1-hop result feeds the 2-hop product before either is renormalized.
    """
    wh, wz, wm = params.flow_wh, params.flow_wz, params.flow_mode
    m = fg.matrix
    a = alpha_prev.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    modes = _softmax_raw(pre @ wm.data)
    moved1 = m @ a
    moved2 = m @ moved1
    t1, mass1 = _renormalize(moved1, a)
    t2, mass2 = _renormalize(moved2, a)
    total = modes[0] * a + modes[1] * t1 + modes[2] * t2

    def bwd(g, g_modes):
        g_modes = g_modes + np.array([g @ a, g @ t1, g @ t2])
        g_a = modes[0] * g
        g_t1, g_t2 = modes[1] * g, modes[2] * g
        g_moved1 = np.zeros_like(a)
        if mass2 is None:
            g_a = g_a + g_t2
        else:
            g_moved1 = m.T @ _renormalize_adjoint(g_t2, t2, mass2)
        if mass1 is None:
            g_a = g_a + g_t1
        else:
            g_moved1 = g_moved1 + _renormalize_adjoint(g_t1, t1, mass1)
        g_a = g_a + m.T @ g_moved1
        g_logits = modes * (g_modes - g_modes @ modes)
        dpre = (wm.data @ g_logits) * (lin > 0)
        return (
            g_a,
            wh.data @ dpre,
            wz.data @ dpre,
            (h_query.data, dpre),
            (z_prev.data, dpre),
            (pre, g_logits),
        )

    return ad.primitive((alpha_prev, h_query, z_prev, wh, wz, wm), (total, modes), bwd)


def fuse_and_context(
    params: DecoderParams,
    alpha_content: Tensor | None,
    alpha_flow: Tensor | None,
    h_query: Tensor,
    z_prev: Tensor,
    x_nodes: Tensor,
) -> tuple[Tensor, Tensor, Tensor | None]:
    """Blend the two attentions and take the attended context vector.

    Either attention may be absent (ablations); the gate is only
    evaluated when both are present, and then the gate, the blend and
    the context are one primitive.  Returns (alpha, context, beta).
    """
    if alpha_content is None and alpha_flow is None:
        raise ShapeError("at least one attention branch must be enabled")
    if alpha_content is None or alpha_flow is None:
        alpha = alpha_flow if alpha_content is None else alpha_content
        return alpha, ad.matmul(alpha, x_nodes), None
    wh, wz, wg = params.fuse_wh, params.fuse_wz, params.fuse_gate
    ac, af, x = alpha_content.data, alpha_flow.data, x_nodes.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    beta = _sigmoid_raw((pre @ wg.data).reshape(1))
    alpha = beta * ac + (1.0 - beta) * af

    def bwd(g_alpha, g_context, g_beta):
        g_alpha = g_alpha + x @ g_context
        g_gate = (g_beta + g_alpha @ (ac - af)) * beta * (1.0 - beta)
        dpre = wg.data * g_gate * (lin > 0)
        return (
            beta * g_alpha,
            (1.0 - beta) * g_alpha,
            wh.data @ dpre,
            wz.data @ dpre,
            np.outer(alpha, g_context),
            (h_query.data, dpre),
            (z_prev.data, dpre),
            pre * g_gate,
        )

    return ad.primitive(
        (alpha_content, alpha_flow, h_query, z_prev, x_nodes, wh, wz, wg),
        (alpha, alpha @ x, beta),
        bwd,
    )


def language_step(
    params: DecoderParams, state: DecoderState, context: Tensor, h_query: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """Language cell plus word projection: returns (h, c, probabilities).
    The projection, its bias and the softmax are one primitive."""
    x = ad.concat([context, h_query], axis=0)
    h_new, c_new = lstm_step(params.lang_cell, x, state.h_lang, state.c_lang)
    w, b = params.w_out, params.b_out
    probs = _softmax_raw(h_new.data @ w.data + b.data)

    def bwd(g):
        dlogits = probs * (g - g @ probs)
        return w.data @ dlogits, (h_new.data, dlogits), dlogits

    return h_new, c_new, ad.primitive((h_new, w, b), probs, bwd)


def graph_update(
    params: DecoderParams, x_nodes: Tensor, h_lang: Tensor, alpha: Tensor
) -> tuple[Tensor, Tensor]:
    """Erase-then-add rewrite of every slot, scaled by update intensity
    u = sentinel * attention.  Slots with zero intensity pass through
    bit-identically.  Returns (new embeddings, sentinel value), both
    outputs of one primitive."""
    sw, sb = params.sentinel_w, params.sentinel_b
    ew, eb, aw, ab = params.erase_w, params.erase_b, params.add_w, params.add_b
    x, h, a = x_nodes.data, h_lang.data, alpha.data
    n_slots, dim = x.shape
    sentinel = _sigmoid_raw((h @ sw.data).reshape(1) + sb.data)
    u = (sentinel * a).reshape(n_slots, 1)
    paired = np.empty((n_slots, 2 * dim))
    paired[:, :dim] = h
    paired[:, dim:] = x
    erase = _sigmoid_raw(paired @ ew.data + eb.data)
    add_lin = paired @ aw.data + ab.data
    added = np.maximum(add_lin, 0.0)
    keep = 1.0 - u * erase

    def bwd(g, g_sentinel):
        g_u = (g * (added - x * erase)).sum(axis=1)
        g_erase = -g * x * u * erase * (1.0 - erase)
        g_add = g * u * (add_lin > 0)
        g_paired = g_erase @ ew.data.T + g_add @ aw.data.T
        g_gate = (g_sentinel + g_u @ a) * sentinel * (1.0 - sentinel)
        return (
            g * keep + g_paired[:, dim:],
            g_paired[:, :dim].sum(axis=0) + sw.data * g_gate,
            sentinel * g_u,
            h * g_gate,
            g_gate,
            (paired, g_erase),
            g_erase.sum(axis=0),
            (paired, g_add),
            g_add.sum(axis=0),
        )

    return ad.primitive(
        (x_nodes, h_lang, alpha, sw, sb, ew, eb, aw, ab), (x * keep + u * added, sentinel), bwd
    )


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------


@dataclass
class Hypothesis:
    tokens: list[int]
    score: float
    state: DecoderState
    finished: bool


def beam_search(
    model,
    graph,
    feats,
    beam: int,
    max_len: int,
    eos_id: int | None = None,
) -> list[Hypothesis]:
    """Standard beam expansion over the model's step distribution.

    Each hypothesis carries its own decoder state (the node embeddings
    evolve per hypothesis).  Results are sorted by total log-probability
    with no length normalization.  ``model`` must provide ``prepare``
    and ``step`` (see CaptionModel).
    """
    if beam < 1:
        raise ShapeError(f"beam must be >= 1, got {beam}")
    prepared = model.prepare(graph, feats)
    state = model.initial_state(prepared)
    bos = model.bos_id
    beams = [Hypothesis(tokens=[], score=0.0, state=state, finished=False)]

    for _ in range(max_len):
        candidates: list[Hypothesis] = []
        for hyp in beams:
            if hyp.finished:
                candidates.append(hyp)
                continue
            prev = hyp.tokens[-1] if hyp.tokens else bos
            new_state, log_probs = model.step(prepared, hyp.state, prev)
            top = np.argsort(log_probs)[::-1][:beam]
            for tok in top:
                tok = int(tok)
                candidates.append(
                    Hypothesis(
                        tokens=hyp.tokens + [tok],
                        score=hyp.score + float(log_probs[tok]),
                        state=new_state,
                        finished=(eos_id is not None and tok == eos_id),
                    )
                )
        candidates.sort(key=lambda h: h.score, reverse=True)
        beams = candidates[:beam]
        if all(h.finished for h in beams):
            break
    beams.sort(key=lambda h: h.score, reverse=True)
    # siblings share their parent's step result; the returned
    # hypotheses each get their own copy
    for hyp in beams:
        hyp.state = _clone_state(hyp.state)
    return beams


def _clone_state(state: DecoderState) -> DecoderState:
    def c(t: Tensor) -> Tensor:
        return ad.tensor(t.data.copy())

    return DecoderState(
        x_nodes=c(state.x_nodes),
        h_att=c(state.h_att),
        c_att=c(state.c_att),
        h_lang=c(state.h_lang),
        c_lang=c(state.c_lang),
        alpha=c(state.alpha),
        z=c(state.z),
        t=state.t,
    )
