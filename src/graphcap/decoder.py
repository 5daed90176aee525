"""Graph-aware language decoder.

Two stacked recurrent cells drive generation: the query cell consumes
the fused scene vector, the previous word, and the previous language
state to produce an attention query; the language cell consumes the
attended context and the query, and the output layer turns its state
into the word distribution.

Attention over the node slots (start slot 0 plus one slot per graph
node) blends two scores: a content score from query/node relevance and
a flow score that transports the previous attention 0, 1, or 2 steps
along the flow graph, gated by a learned 3-way mode distribution.  A
sigmoid gate fuses the two.  After each emitted word, every slot is
rewritten by an erase-then-add update scaled by its attention mass and
a scalar sentinel (so function words leave the graph memory untouched).

Each sub-module (an LSTM cell with its input projection, content
attention, flow attention, the fusion gate with its context and the
graph update) is one autodiff primitive with a hand-written adjoint, so
a recorded decode is differentiable end to end: a step records seven
tape entries, the previous word's lookup included.  The output layer is
outside the step.  Decoding applies it to each step's rows in numpy
(``output_log_probs``); teacher-forced training applies it once to the
stacked states of the whole caption and takes the loss in the same
primitive (``output_loss``).  Weight adjoints are returned as factor
pairs ``(x, g)`` (see :mod:`graphcap.autodiff`), which the backward pass
stacks over the decode steps into one product per weight.

There is one shape contract: every state and every primitive has a
leading axis of K rows.  The state fields are ``x_nodes`` (K, S, d),
``alpha`` (K, S) and ``h``, ``c``, ``z`` (K, d); each row reads its own
scene vector (K, d), flow matrix (K, S, S) and additive slot mask
(K, S).  The loss, greedy decoding and the attention trace step one row
(K = 1).  Beam search steps the unfinished hypotheses of all its
requests as the rows of one state, one step per search step (small
per-row GEMMs batched into one, as Appleyard et al. batch them across
time).  A pack of several graphs zero-pads the slots past a graph's own
up to the pack's most slots S, and their mask of -inf keeps them at
exactly zero content attention.  Padded slots then also get zero flow
mass (the padded matrix entries are zero) and zero update intensity, so
a row computes what its graph alone would.  Each row keeps its own
vanishing-mass fallback in the flow transports, and the adjoints of
shared weights sum over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _log_softmax_raw, _picked_nll, _sigmoid_raw, _softmax_raw
from .errors import ShapeError

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
    "output_log_probs",
    "output_loss",
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
    """Evolving per-step state of K rows.  Instances are never mutated;
    each step returns a fresh state."""

    x_nodes: Tensor  # (K, n_slots, d)
    h_att: Tensor  # (K, d)
    c_att: Tensor
    h_lang: Tensor
    c_lang: Tensor
    alpha: Tensor  # (K, n_slots)
    z: Tensor  # (K, d)


def init_state(x_enc: Tensor, flow: np.ndarray) -> DecoderState:
    """Attention starts one-hot on the start slot; recurrent states and
    the context vector start at zero.  ``x_enc`` (K, S, d) and the flow
    matrices (K, S, S) give a state of K rows."""
    rows, n_slots, dim = x_enc.data.shape
    if flow.shape[-1] != n_slots:
        raise ShapeError(f"flow graph has {flow.shape[-1]} slots, embeddings {n_slots}")
    alpha0 = np.zeros((rows, n_slots))
    alpha0[:, 0] = 1.0
    zeros = np.zeros((rows, dim))
    return DecoderState(
        x_nodes=x_enc,
        h_att=ad.tensor(zeros),
        c_att=ad.tensor(zeros),
        h_lang=ad.tensor(zeros),
        c_lang=ad.tensor(zeros),
        alpha=ad.tensor(alpha0),
        z=ad.tensor(zeros),
    )


def lstm_step(cell: LstmParams, parts, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell in the fused-gate form of Appleyard et al.
    (arXiv 1604.01946): one primitive for the input projection of the
    concatenated ``parts``, the recurrent product, the four gates
    (order i, f, o, g) and the new (h, c).

    A part is a tensor of the state's rows, or a pair ``(table, key)``
    standing for the rows ``key`` of ``table``, looked up first (the
    previous words).  The parts' adjoints are the slices of
    ``dgates @ w_ih.T``."""
    parts = [ad.tslice(*p) if type(p) is tuple else p for p in parts]
    d = cell.hidden
    w_ih, w_hh, bias = cell.w_ih, cell.w_hh, cell.bias
    x = np.concatenate([p.data for p in parts], axis=-1)
    gates = x @ w_ih.data + h.data @ w_hh.data + bias.data
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
        dx = dgates @ w_ih.data.T
        g_parts, start = [], 0
        for p in parts:
            stop = start + p.data.shape[-1]
            g_parts.append(dx[..., start:stop])
            start = stop
        return (*g_parts, dgates @ w_hh.data.T, gc * f, (x, dgates), (h.data, dgates), dgates.sum(axis=0))

    return ad.primitive((*parts, h, c, w_ih, w_hh, bias), (o * tanh_c, c_new), bwd)


def attention_query_step(params: DecoderParams, state: DecoderState, fused: Tensor, w_prev) -> tuple[Tensor, Tensor]:
    """Query cell: consumes [fused scene; previous word; previous
    language hidden] and advances the query LSTM.  ``fused`` holds each
    row's scene vector (K, d); ``w_prev`` is an ``lstm_step`` part: the
    embeddings, or the pair (embedding table, previous ids)."""
    return lstm_step(params.att_cell, [fused, w_prev, state.h_lang], state.h_att, state.c_att)


def content_attention(params: DecoderParams, x_nodes: Tensor, h_query: Tensor, mask: np.ndarray) -> Tensor:
    """softmax over slots of w_c . tanh(X W_x + h W_h) plus ``mask``, as
    one primitive.  The additive mask (K, S) is 0 on a row's own slots
    and -inf on a pack's padding, which so gets exactly zero attention
    and zero adjoints."""
    wx, wh, ws = params.content_wx, params.content_wh, params.content_score
    hidden = np.tanh(x_nodes.data @ wx.data + (h_query.data @ wh.data)[..., None, :])
    alpha = _softmax_raw(hidden @ ws.data + mask)

    def bwd(g):
        dscores = alpha * (g - np.vecdot(g, alpha, keepdims=True))
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


def _renormalize(moved: np.ndarray, fallback: np.ndarray):
    """Scale each transported distribution of ``moved`` (n, K, S) back to
    one, in place; one whose mass vanishes becomes its row's previous
    attention (``fallback``, (K, S)) instead.  Returns (mass, kept), both
    (n, K, 1); kept is None when nothing vanished."""
    mass = moved.sum(axis=-1, keepdims=True)
    if min(mass.ravel().tolist()) >= 1e-12:  # a few floats: cheaper than a numpy min
        moved /= mass
        return mass, None
    kept = mass >= 1e-12
    mass = np.where(kept, mass, 1.0)
    moved[:] = np.where(kept, moved / mass, fallback)
    return mass, kept


def _renormalize_adjoint(g: np.ndarray, dist: np.ndarray, mass, kept):
    """Adjoints of ``_renormalize`` with respect to the moved mass and
    to the fallback (summed over the n distributions)."""
    g_moved = (g - np.vecdot(g, dist, keepdims=True)) / mass
    if kept is None:
        return g_moved, 0.0
    return np.where(kept, g_moved, 0.0), np.where(kept, 0.0, g).sum(axis=0)


def flow_attention(
    params: DecoderParams,
    flow: np.ndarray,
    alpha_prev: Tensor,
    h_query: Tensor,
    z_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """Returns (flow attention, mode distribution s over stay/1-hop/2-hop),
    both outputs of one primitive.  Each row moves along its own matrix
    of the (K, S, S) stack ``flow``.

    The un-normalized 1-hop result feeds the 2-hop product, and both are
    renormalized together; the output is the mode-weighted sum of the
    three distributions.
    """
    wh, wz, wm = params.flow_wh, params.flow_wz, params.flow_mode
    a = alpha_prev.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    modes = _softmax_raw(pre @ wm.data)
    hops = np.empty((3,) + a.shape)  # each row's attention kept, moved one hop and two
    hops[0] = a
    hops[1] = np.matvec(flow, a)
    hops[2] = np.matvec(flow, hops[1])
    mass, kept = _renormalize(hops[1:], a)
    m = modes.T[..., None]  # (3, K, 1)
    total = (m * hops).sum(axis=0)

    def bwd(g, g_modes):
        g_modes = g_modes + np.vecdot(hops, g).T
        g_moved, g_kept = _renormalize_adjoint(m[1:] * g, hops[1:], mass, kept)
        g_moved1 = g_moved[0] + np.vecmat(g_moved[1], flow)
        g_logits = modes * (g_modes - np.vecdot(g_modes, modes, keepdims=True))
        dpre = (g_logits @ wm.data.T) * (lin > 0)
        return (
            m[0] * g + g_kept + np.vecmat(g_moved1, flow),
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
            return np.matvec(x, g), a[..., None] * g[..., None, :]

        return alpha, ad.primitive((alpha, x_nodes), np.vecmat(a, x), bwd_context), None
    wh, wz, wg = params.fuse_wh, params.fuse_wz, params.fuse_gate
    ac, af = alpha_content.data, alpha_flow.data
    lin = h_query.data @ wh.data + z_prev.data @ wz.data
    pre = np.maximum(lin, 0.0)
    beta = _sigmoid_raw((pre @ wg.data)[..., None])
    alpha = beta * ac + (1.0 - beta) * af

    def bwd(g_alpha, g_context, g_beta):
        g_alpha = g_alpha + np.matvec(x, g_context)
        g_gate = (g_beta + np.vecdot(g_alpha, ac - af, keepdims=True)) * beta * (1.0 - beta)
        dpre = wg.data * g_gate * (lin > 0)
        return (
            beta * g_alpha,
            (1.0 - beta) * g_alpha,
            dpre @ wh.data.T,
            dpre @ wz.data.T,
            alpha[..., None] * g_context[..., None, :],
            (h_query.data, dpre),
            (z_prev.data, dpre),
            (pre, g_gate),
        )

    return ad.primitive(
        (alpha_content, alpha_flow, h_query, z_prev, x_nodes, wh, wz, wg),
        (alpha, np.vecmat(alpha, x), beta),
        bwd,
    )


def language_step(
    params: DecoderParams, state: DecoderState, context: Tensor, h_query: Tensor
) -> tuple[Tensor, Tensor]:
    """Language cell: consumes [context; query] and returns its new
    (h, c).  The output layer reads ``h`` (``output_log_probs``,
    ``output_loss``)."""
    return lstm_step(params.lang_cell, [context, h_query], state.h_lang, state.c_lang)


def output_log_probs(params: DecoderParams, h: np.ndarray) -> np.ndarray:
    """Word log-probabilities of the language states ``h``, one row or
    any number of rows: the max-shifted log-softmax of
    ``h @ w_out + b_out``."""
    return _log_softmax_raw(h @ params.w_out.data + params.b_out.data)


def output_loss(params: DecoderParams, h_rows: list[Tensor], targets) -> Tensor:
    """Mean cross entropy of ``targets[t]`` under the output layer at
    the one-row language state ``h_rows[t]`` (1, d): the states stacked
    into one (T, d) @ (d, V) product, its log-softmax and the loss as
    one primitive."""
    w, b = params.w_out, params.b_out
    h = np.concatenate([r.data for r in h_rows])
    value, dlogits = _picked_nll(output_log_probs(params, h), targets)

    def bwd(g):
        dl = dlogits(g)
        return (*(dl @ w.data.T)[..., None, :], (h, dl), dl.sum(axis=0))

    return ad.primitive((*h_rows, w, b), value, bwd)


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
        g_u = np.vecdot(g, added - x * erase)
        g_erase = -g * x * u * erase * (1.0 - erase)
        g_add = g * u * (add_lin > 0)
        g_paired = g_erase @ ew.data.T + g_add @ aw.data.T
        g_gate = (g_sentinel + np.vecdot(g_u, a, keepdims=True)) * sentinel * (1.0 - sentinel)
        return (
            g * keep + g_paired[..., dim:],
            g_paired[..., :dim].sum(axis=-2) + sw.data * g_gate,
            sentinel * g_u,
            (h, g_gate),
            g_gate.sum(axis=0),
            (paired, g_erase),
            g_erase.sum(axis=(0, 1)),
            (paired, g_add),
            g_add.sum(axis=(0, 1)),
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


def _take(state: DecoderState, pack, rows: list[int]):
    """The rows ``rows`` (a row may repeat) of a state and of the pack
    rows it steps with; the same objects when ``rows`` is every row in
    order."""
    if rows == list(range(len(state.alpha.data))):
        return state, pack
    index = np.array(rows)
    taken = [ad.tensor(getattr(state, f.name).data[index]) for f in fields(DecoderState)]
    return DecoderState(*taken), pack.rows(index)


def beam_search(model, requests, max_len: int, eos_id: int | None = None) -> list[list[Hypothesis]]:
    """Standard beam expansion over the model's step distribution, for a
    pack of requests ``(graph, feats, width)`` searched together.

    Each unfinished hypothesis is one row of the decoder state (the node
    embeddings evolve per hypothesis), and the rows of every request
    advance by one ``model.step`` call per search step; finished ones
    are carried without stepping.  Each distinct graph (the same graph
    and feature objects) is prepared once, and the prepared graphs are
    joined into one pack (``model.pack``).  Each row steps with its own
    graph's row of the pack: its scene vector, flow matrix and slot
    mask, gathered with the state's rows whenever the live rows change.
    One request at width 1 (greedy decoding) steps one row throughout.
    Each request keeps its own top-``width`` bookkeeping, and identical
    requests are searched once.

    Returns one list of hypotheses (tokens and score) per request,
    sorted by total log-probability with no length normalization;
    identical requests share their hypotheses.  ``model`` must provide
    ``prepare``, ``pack``, ``initial_state`` and ``step`` (see
    CaptionModel), and its packs ``rows``.
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

    pack = model.pack(prepared)
    live = list(search_of.values())
    # the rows of the live hypotheses: one per search to start
    state, pack = _take(model.initial_state(pack), pack, [s.graph for s in live])
    bos = model.bos_id
    width = max(s.width for s in live)

    for _ in range(max_len):
        prev = [h.tokens[-1] if h.tokens else bos for s in live for h in s.beams if not h.finished]
        stepped, log_probs = model.step(pack, state, np.array(prev))
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
        state, pack = _take(stepped, pack, rows)
    return [list(s.beams) for s in order]
