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

Every primitive also takes a leading batch axis of K rows: the state
fields ``x_nodes`` (K, S, d), ``alpha`` (K, S) and ``h``, ``c``, ``z``
(K, d).  The rows of one graph share its scene vector and flow matrix;
a pack of several graphs gives each row its own scene vector (K, d) and
flow matrix (K, S, S), with the slots past a graph's own zero-padded up
to the pack's most slots S and a (K, S) slot mask that keeps them at
exactly zero content attention.  Padded slots then also get zero flow
mass (the padded matrix entries are zero) and zero update intensity, so
a row computes what its graph alone would.  Each row keeps its own
vanishing-mass fallback in the flow transports, and the adjoints of
shared weights sum over the rows.  Beam search packs the unfinished
hypotheses of all its requests into one batched state and advances
them with one step per search step (small per-row GEMMs batched into
one, as Appleyard et al. batch them across time).  Unbatched calls
(training, the loss, greedy decoding) run the same numpy calls as
without the axis.
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
    returns a fresh state.  A packed state carries a leading axis of K
    rows on every tensor."""

    x_nodes: Tensor  # (n_slots, d)
    h_att: Tensor
    c_att: Tensor
    h_lang: Tensor
    c_lang: Tensor
    alpha: Tensor  # (n_slots,)
    z: Tensor  # (d,)


def init_state(x_enc: Tensor, fg: FlowGraph | np.ndarray) -> DecoderState:
    """Attention starts one-hot on the start slot; recurrent states and
    the context vector start at zero.  A pack's ``x_enc`` (K, S, d) and
    flow matrices (K, S, S) give a state of K rows."""
    *rows, n_slots, dim = x_enc.data.shape
    flow_slots = fg.n_slots if isinstance(fg, FlowGraph) else fg.shape[-1]
    if flow_slots != n_slots:
        raise ShapeError(f"flow graph has {flow_slots} slots, embeddings {n_slots}")
    alpha0 = np.zeros((*rows, n_slots))
    alpha0[..., 0] = 1.0
    zeros = np.zeros((*rows, dim))
    return DecoderState(
        x_nodes=x_enc,
        h_att=ad.tensor(zeros),
        c_att=ad.tensor(zeros),
        h_lang=ad.tensor(zeros),
        c_lang=ad.tensor(zeros),
        alpha=ad.tensor(alpha0),
        z=ad.tensor(zeros),
    )


def _dot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` over the last axis: a scalar for vectors, a (K, 1)
    column for K rows, so it broadcasts back over each row."""
    if a.ndim == 1:
        return a @ b
    return np.einsum("ki,ki->k", a, b)[:, None]


def _lead_sum(g: np.ndarray) -> np.ndarray:
    """An adjoint summed over its leading axes down to one vector (the
    adjoint of a bias or vector weight shared by every row)."""
    return g if g.ndim == 1 else g.reshape(-1, g.shape[-1]).sum(axis=0)


def _attend(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The attended context ``alpha @ x`` of each row."""
    return alpha @ x if alpha.ndim == 1 else (alpha[:, None, :] @ x)[:, 0]


def _attend_adjoint(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x @ g`` of each row: the adjoint of ``_attend`` in ``alpha``."""
    return x @ g if g.ndim == 1 else (x @ g[:, :, None])[:, :, 0]


def _repeat_rows(t: Tensor, k: int) -> Tensor:
    """A shared vector as k identical rows; the adjoint sums the rows."""
    return ad.primitive((t,), np.broadcast_to(t.data, (k, t.data.size)), lambda g: (g.sum(axis=0),))


def lstm_step(cell: LstmParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell in the fused-gate form of Appleyard et al.
    (arXiv 1604.01946): the input projection, then a single primitive
    for the recurrent product, the four gates (order i, f, o, g) and
    the new (h, c)."""
    xw = ad.matmul(x, cell.w_ih)
    d = cell.hidden
    w_hh, bias = cell.w_hh, cell.bias
    gates = xw.data + h.data @ w_hh.data + bias.data
    ifo = _sigmoid_raw(gates[..., : 3 * d])
    i, f, o = ifo[..., :d], ifo[..., d : 2 * d], ifo[..., 2 * d :]
    g = np.tanh(gates[..., 3 * d :])
    c_new = f * c.data + i * g
    tanh_c = np.tanh(c_new)

    def bwd(gh, gc):
        gc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        dgates = np.concatenate([gc * g, gc * c.data, gh * tanh_c, gc * i], axis=-1)
        dgates[..., : 3 * d] *= ifo * (1.0 - ifo)
        dgates[..., 3 * d :] *= 1.0 - g * g
        return dgates, dgates @ w_hh.data.T, gc * f, (h.data, dgates), _lead_sum(dgates)

    return ad.primitive((xw, h, c, w_hh, bias), (o * tanh_c, c_new), bwd)


def attention_query_step(
    params: DecoderParams, state: DecoderState, fused: Tensor, w_prev: Tensor
) -> tuple[Tensor, Tensor]:
    """Query cell: consumes [fused scene; previous word; previous
    language hidden] and advances the query LSTM.  One scene vector (d,)
    is shared by the rows of a batched state; a pack gives one per row
    (K, d)."""
    if w_prev.data.ndim == 2 and fused.data.ndim == 1:
        fused = _repeat_rows(fused, len(w_prev.data))
    x = ad.concat([fused, w_prev, state.h_lang], axis=-1)
    return lstm_step(params.att_cell, x, state.h_att, state.c_att)


def content_attention(
    params: DecoderParams, x_nodes: Tensor, h_query: Tensor, mask: np.ndarray | None = None
) -> Tensor:
    """softmax over slots of w_c . tanh(X W_x + h W_h), as one primitive.
    Slots where the boolean ``mask`` (a pack's padding) is false get
    exactly zero attention, and so zero adjoints."""
    wx, wh, ws = params.content_wx, params.content_wh, params.content_score
    hidden = np.tanh(x_nodes.data @ wx.data + (h_query.data @ wh.data)[..., None, :])
    scores = hidden @ ws.data
    alpha = _softmax_raw(scores if mask is None else np.where(mask, scores, -np.inf))

    def bwd(g):
        dscores = alpha * (g - _dot(g, alpha))
        dpre = dscores[..., None] * ws.data * (1.0 - hidden * hidden)
        dh = dpre.sum(axis=-2)
        return (
            dpre @ wx.data.T,
            dh @ wh.data.T,
            (x_nodes.data, dpre),
            (h_query.data, dh),
            (hidden, dscores[..., None]),
        )

    return ad.primitive((x_nodes, h_query, wx, wh, ws), alpha, bwd)


def _transport(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Each row of ``a`` moved one step along the flow (``m @ a``): by
    one matrix (S, S) shared by the rows, or by its own of a (K, S, S)
    stack."""
    return a @ m.T if m.ndim == 2 else (m @ a[..., None])[..., 0]


def _transport_adjoint(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g @ m`` of each row: the adjoint of ``_transport`` in ``a``."""
    return g @ m if m.ndim == 2 else (g[..., None, :] @ m)[..., 0, :]


def _renormalize(moved: np.ndarray, fallback: np.ndarray):
    """Scale each row back to a distribution; a row whose transported
    mass vanishes keeps its previous attention (``fallback``).  Returns
    (distribution, mass, kept): mass and kept are (..., 1) columns, and
    kept is None when no row vanished."""
    mass = moved.sum(axis=-1, keepdims=True)
    if (mass.item() if mass.size == 1 else mass.min()) >= 1e-12:
        return moved / mass, mass, None
    kept = mass >= 1e-12
    mass = np.where(kept, mass, 1.0)
    return np.where(kept, moved / mass, fallback), mass, kept


def _renormalize_adjoint(g: np.ndarray, dist: np.ndarray, mass, kept):
    """Adjoints of ``_renormalize`` with respect to the moved mass and
    to the fallback."""
    g_moved = (g - _dot(g, dist)) / mass
    if kept is None:
        return g_moved, 0.0
    return np.where(kept, g_moved, 0.0), np.where(kept, 0.0, g)


def flow_attention(
    params: DecoderParams,
    fg: FlowGraph | np.ndarray,
    alpha_prev: Tensor,
    h_query: Tensor,
    z_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """Returns (flow attention, mode distribution s over stay/1-hop/2-hop),
    both outputs of one primitive.

    The three transports share the matrix products: the un-normalized
    1-hop result feeds the 2-hop product before either is renormalized.
    The flow graph's matrix is shared by the rows of a batched state; a
    pack passes a (K, S, S) stack of matrices, one per row.
    """
    wh, wz, wm = params.flow_wh, params.flow_wz, params.flow_mode
    m = fg.matrix if isinstance(fg, FlowGraph) else fg
    a = alpha_prev.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    modes = _softmax_raw(pre @ wm.data)
    m0, m1, m2 = modes.tolist() if modes.ndim == 1 else modes.T[..., None]
    moved1 = _transport(m, a)
    moved2 = _transport(m, moved1)
    t1, mass1, kept1 = _renormalize(moved1, a)
    t2, mass2, kept2 = _renormalize(moved2, a)
    total = m0 * a + m1 * t1 + m2 * t2

    def bwd(g, g_modes):
        g_modes = g_modes + np.hstack([_dot(g, a), _dot(g, t1), _dot(g, t2)])
        g_moved2, g_a2 = _renormalize_adjoint(m2 * g, t2, mass2, kept2)
        g_moved1, g_a1 = _renormalize_adjoint(m1 * g, t1, mass1, kept1)
        g_moved1 = g_moved1 + _transport_adjoint(m, g_moved2)
        g_logits = modes * (g_modes - _dot(g_modes, modes))
        dpre = (g_logits @ wm.data.T) * (lin > 0)
        return (
            m0 * g + g_a2 + g_a1 + _transport_adjoint(m, g_moved1),
            dpre @ wh.data.T,
            dpre @ wz.data.T,
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
    x = x_nodes.data
    if alpha_content is None or alpha_flow is None:
        alpha = alpha_flow if alpha_content is None else alpha_content
        a = alpha.data

        def bwd_context(g):
            return _attend_adjoint(x, g), a[..., None] * g[..., None, :]

        return alpha, ad.primitive((alpha, x_nodes), _attend(a, x), bwd_context), None
    wh, wz, wg = params.fuse_wh, params.fuse_wz, params.fuse_gate
    ac, af = alpha_content.data, alpha_flow.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    beta = _sigmoid_raw((pre @ wg.data)[..., None])
    alpha = beta * ac + (1.0 - beta) * af

    def bwd(g_alpha, g_context, g_beta):
        g_alpha = g_alpha + _attend_adjoint(x, g_context)
        g_gate = (g_beta + _dot(g_alpha, ac - af)) * beta * (1.0 - beta)
        dpre = wg.data * g_gate * (lin > 0)
        return (
            beta * g_alpha,
            (1.0 - beta) * g_alpha,
            dpre @ wh.data.T,
            dpre @ wz.data.T,
            alpha[..., None] * g_context[..., None, :],
            (h_query.data, dpre),
            (z_prev.data, dpre),
            _lead_sum(pre * g_gate),
        )

    return ad.primitive(
        (alpha_content, alpha_flow, h_query, z_prev, x_nodes, wh, wz, wg),
        (alpha, _attend(alpha, x), beta),
        bwd,
    )


def language_step(
    params: DecoderParams, state: DecoderState, context: Tensor, h_query: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """Language cell plus word projection: returns (h, c, probabilities).
    The projection, its bias and the softmax are one primitive."""
    x = ad.concat([context, h_query], axis=-1)
    h_new, c_new = lstm_step(params.lang_cell, x, state.h_lang, state.c_lang)
    w, b = params.w_out, params.b_out
    probs = _softmax_raw(h_new.data @ w.data + b.data)

    def bwd(g):
        dlogits = probs * (g - _dot(g, probs))
        return dlogits @ w.data.T, (h_new.data, dlogits), _lead_sum(dlogits)

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
    dim = x.shape[-1]
    sentinel = _sigmoid_raw((h @ sw.data)[..., None] + sb.data)
    u = (sentinel * a)[..., None]
    paired = np.empty(x.shape[:-1] + (2 * dim,))
    paired[..., :dim] = h[..., None, :]
    paired[..., dim:] = x
    erase = _sigmoid_raw(paired @ ew.data + eb.data)
    add_lin = paired @ aw.data + ab.data
    added = np.maximum(add_lin, 0.0)
    keep = 1.0 - u * erase

    def bwd(g, g_sentinel):
        g_u = (g * (added - x * erase)).sum(axis=-1)
        g_erase = -g * x * u * erase * (1.0 - erase)
        g_add = g * u * (add_lin > 0)
        g_paired = g_erase @ ew.data.T + g_add @ aw.data.T
        g_gate = (g_sentinel + _dot(g_u, a)) * sentinel * (1.0 - sentinel)
        return (
            g * keep + g_paired[..., dim:],
            g_paired[..., :dim].sum(axis=-2) + sw.data * g_gate,
            sentinel * g_u,
            _lead_sum(h * g_gate),
            _lead_sum(g_gate),
            (paired, g_erase),
            _lead_sum(g_erase),
            (paired, g_add),
            _lead_sum(g_add),
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
    finished: bool


@dataclass
class _Search:
    """One distinct request of a pack: its width, its graph's row in
    the pack, and its current beam."""

    width: int
    graph: int
    beams: list[Hypothesis]


def _take(state: DecoderState, rows: np.ndarray) -> DecoderState:
    """The packed state of some rows of a state (an unbatched state is
    one row)."""
    batched = state.alpha.data.ndim == 2
    taken = []
    for f in fields(DecoderState):
        d = getattr(state, f.name).data
        taken.append(ad.tensor((d if batched else d[None])[rows]))
    return DecoderState(*taken)


def beam_search(model, requests, max_len: int, eos_id: int | None = None) -> list[list[Hypothesis]]:
    """Standard beam expansion over the model's step distribution, for a
    pack of requests ``(graph, feats, width)`` searched together.

    Each unfinished hypothesis is one row of a packed decoder state (the
    node embeddings evolve per hypothesis), and the rows of every
    request advance by one ``model.step`` call per search step; finished
    ones are carried without stepping.  Each distinct graph (the same
    graph and feature objects) is prepared once.  A pack of one graph
    steps with its own prepared inputs (a lone live row keeps the
    unbatched shapes, always so for one request at width 1); a pack of
    several steps with the rows of ``model.pack``, each row reading its
    own graph's scene vector, flow matrix and slot mask.  Each request
    keeps its own top-``width`` bookkeeping, and identical requests are
    searched once.

    Returns one list of hypotheses (tokens and score) per request,
    sorted by total log-probability with no length normalization;
    identical requests share their hypotheses.  ``model`` must provide
    ``prepare``, ``pack``, ``initial_state`` and ``step`` (see
    CaptionModel).
    """
    prepared, graph_of, search_of, order = [], {}, {}, []
    for g, feats, width in requests:
        if width < 1:
            raise ShapeError(f"beam must be >= 1, got {width}")
        key = (id(g), id(feats), width)
        search = search_of.get(key)
        if search is None:
            graph = graph_of.get(key[:2])
            if graph is None:
                graph = graph_of[key[:2]] = len(prepared)
                prepared.append(model.prepare(g, feats))
            search = search_of[key] = _Search(width, graph, [Hypothesis([], 0.0, False)])
        order.append(search)

    one_graph = len(prepared) == 1
    pack = prepared[0] if one_graph else model.pack(prepared)
    state = model.initial_state(pack)  # the packed rows of the live hypotheses
    live = list(search_of.values())
    if len(live) > 1:  # one row per search, not per graph
        state = _take(state, np.array([s.graph for s in live]))
    bos = model.bos_id
    width = max(s.width for s in live)

    for _ in range(max_len):
        prev = [h.tokens[-1] if h.tokens else bos for s in live for h in s.beams if not h.finished]
        if one_graph:
            step_pack = pack
        else:  # each row reads its own graph's inputs
            step_pack = pack.rows(np.array([s.graph for s in live for h in s.beams if not h.finished]))
        batched = state.alpha.data.ndim == 2
        stepped, log_probs = model.step(step_pack, state, np.array(prev) if batched else prev[0])
        log_probs = log_probs.reshape(len(prev), -1)
        top = np.argsort(log_probs, axis=1)[:, ::-1][:, :width]
        rows, still_live, row = [], [], 0
        for s in live:
            # (score, parent, row of the parent, token) in beam order; a
            # stable sort then breaks ties by that order
            candidates = []
            for hyp in s.beams:
                if hyp.finished:
                    candidates.append((hyp.score, hyp, -1, -1))
                    continue
                toks = top[row, : s.width]
                for tok, lp in zip(toks.tolist(), log_probs[row, toks].tolist()):
                    candidates.append((hyp.score + lp, hyp, row, tok))
                row += 1
            candidates.sort(key=lambda c: c[0], reverse=True)
            s.beams = []
            n_rows = len(rows)
            for score, hyp, r, tok in candidates[: s.width]:
                if r < 0:
                    s.beams.append(hyp)
                    continue
                done = eos_id is not None and tok == eos_id
                s.beams.append(Hypothesis(hyp.tokens + [tok], score, done))
                if not done:
                    rows.append(r)
            if len(rows) > n_rows:
                still_live.append(s)
        if not rows:
            break
        live = still_live
        state = stepped if rows == list(range(len(prev))) else _take(stepped, np.array(rows))
    return [list(s.beams) for s in order]
