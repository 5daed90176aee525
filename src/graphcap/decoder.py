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

All operations run through the autodiff primitives, so a recorded
decode is differentiable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
    d = cell.hidden
    gates = ad.add(ad.add(ad.matmul(x, cell.w_ih), ad.matmul(h, cell.w_hh)), cell.bias)
    ifo = ad.sigmoid(ad.tslice(gates, slice(0, 3 * d)))  # gate order i, f, o, g
    i = ad.tslice(ifo, slice(0, d))
    f = ad.tslice(ifo, slice(d, 2 * d))
    o = ad.tslice(ifo, slice(2 * d, 3 * d))
    g = ad.tanh(ad.tslice(gates, slice(3 * d, 4 * d)))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def attention_query_step(
    params: DecoderParams, state: DecoderState, fused: Tensor, w_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """Query cell: consumes [fused scene; previous word; previous
    language hidden] and advances the query LSTM."""
    x = ad.concat([fused, w_prev, state.h_lang], axis=0)
    return lstm_step(params.att_cell, x, state.h_att, state.c_att)


def content_attention(params: DecoderParams, x_nodes: Tensor, h_query: Tensor) -> Tensor:
    hidden = ad.tanh(
        ad.add(ad.matmul(x_nodes, params.content_wx), ad.matmul(h_query, params.content_wh))
    )
    scores = ad.matmul(hidden, params.content_score)
    return ad.softmax(scores)


def _renormalize(moved: Tensor, fallback: Tensor) -> Tensor:
    """Scale back to a distribution, keeping the previous attention when
    the transported mass vanishes."""
    if float(moved.data.sum()) < 1e-12:
        return fallback
    return ad.div(moved, ad.tsum(moved))


def flow_attention(
    params: DecoderParams,
    fg: FlowGraph,
    alpha_prev: Tensor,
    h_query: Tensor,
    z_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """Returns (flow attention, mode distribution s over stay/1-hop/2-hop).

    The three transports share the matrix products: the un-normalized
    1-hop result feeds the 2-hop product before either is renormalized.
    """
    pre = ad.relu(
        ad.add(ad.matmul(h_query, params.flow_wh), ad.matmul(z_prev, params.flow_wz))
    )
    modes = ad.softmax(ad.matmul(pre, params.flow_mode))
    m = ad.tensor(fg.matrix)
    moved1 = ad.matmul(m, alpha_prev)
    moved2 = ad.matmul(m, moved1)
    transports = (
        alpha_prev,
        _renormalize(moved1, alpha_prev),
        _renormalize(moved2, alpha_prev),
    )
    total = None
    for k, moved in enumerate(transports):
        term = ad.mul(ad.tslice(modes, slice(k, k + 1)), moved)
        total = term if total is None else ad.add(total, term)
    return total, modes


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
    evaluated when both are present.  Returns (alpha, context, beta).
    """
    if alpha_content is None and alpha_flow is None:
        raise ShapeError("at least one attention branch must be enabled")
    beta = None
    if alpha_content is None:
        alpha = alpha_flow
    elif alpha_flow is None:
        alpha = alpha_content
    else:
        pre = ad.relu(
            ad.add(ad.matmul(h_query, params.fuse_wh), ad.matmul(z_prev, params.fuse_wz))
        )
        beta = ad.sigmoid(ad.reshape(ad.matmul(pre, params.fuse_gate), (1,)))
        one_minus = ad.sub(ad.tensor([1.0]), beta)
        alpha = ad.add(ad.mul(beta, alpha_content), ad.mul(one_minus, alpha_flow))
    context = ad.matmul(alpha, x_nodes)
    return alpha, context, beta


def language_step(
    params: DecoderParams, state: DecoderState, context: Tensor, h_query: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """Language cell plus word projection: returns (h, c, probabilities)."""
    x = ad.concat([context, h_query], axis=0)
    h_new, c_new = lstm_step(params.lang_cell, x, state.h_lang, state.c_lang)
    probs = ad.softmax(ad.add(ad.matmul(h_new, params.w_out), params.b_out))
    return h_new, c_new, probs


def graph_update(
    params: DecoderParams, x_nodes: Tensor, h_lang: Tensor, alpha: Tensor
) -> tuple[Tensor, Tensor]:
    """Erase-then-add rewrite of every slot, scaled by update intensity
    u = sentinel * attention.  Slots with zero intensity pass through
    bit-identically.  Returns (new embeddings, sentinel value)."""
    n_slots = x_nodes.data.shape[0]
    sentinel = ad.sigmoid(
        ad.add(ad.reshape(ad.matmul(h_lang, params.sentinel_w), (1,)), params.sentinel_b)
    )
    u = ad.mul(sentinel, alpha)  # (n_slots,)
    u_col = ad.reshape(u, (n_slots, 1))

    h_rows = ad.mul(ad.tensor(np.ones((n_slots, 1))), h_lang)  # broadcast h to every row
    paired = ad.concat([h_rows, x_nodes], axis=1)
    erase = ad.sigmoid(ad.add(ad.matmul(paired, params.erase_w), params.erase_b))
    kept = ad.mul(x_nodes, ad.sub(ad.tensor([[1.0]]), ad.mul(u_col, erase)))
    added = ad.relu(ad.add(ad.matmul(paired, params.add_w), params.add_b))
    x_new = ad.add(kept, ad.mul(u_col, added))
    return x_new, sentinel


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
    return beams
