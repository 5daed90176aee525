"""The assembled caption model: encoder + decoder + loss + decoding.

The model owns all parameters, the vocabulary, and the component
switches.  A forward pass prepares a graph once (node embeddings, fused
scene vector, flow graph) and then steps the decoder token by token;
the same step function serves teacher-forced training, greedy decoding,
and beam search, which steps all its live hypotheses at once as the
rows of one batched state.  Beam search also packs the requests of
several graphs into one search (``caption_pack``): each graph's
prepared inputs are zero-padded to the pack's most slots and become
rows of one ``Prepared`` with a slot mask (``CaptionModel.pack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import decoder as dec
from .autodiff import Tensor
from .encoder import FeatureBundle, aggregation_matrices, encode, init_encoder_params
from .errors import ShapeError
from .grammar import Vocab
from .graph import FlowGraph, SceneGraph, build_flow, build_multirel
from .decoder import DecoderState, init_decoder_params

__all__ = ["ModelConfig", "Prepared", "CaptionModel"]


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 64
    n_layers: int = 2
    max_attrs: int = 4
    use_role_embed: bool = True
    use_mrgcn: bool = True
    use_content_attention: bool = True
    use_flow_attention: bool = True
    use_graph_update: bool = True

    def __post_init__(self):
        if not (self.use_content_attention or self.use_flow_attention):
            raise ShapeError("at least one attention branch must stay enabled")
        if self.dim < 1 or self.n_layers < 0:
            raise ShapeError("bad model dimensions")


@dataclass
class Prepared:
    """Per-input encoder outputs shared by all decode steps: the slot
    embeddings ``x_enc`` (S, d), the fused scene vector ``fused`` (d,)
    and the flow graph, shared by every row of a batched state.

    A pack of several graphs (``CaptionModel.pack``) has one graph per
    row instead: ``x_enc`` (K, S, d), ``fused`` (K, d), ``flow`` a
    (K, S, S) stack of transition matrices and ``mask`` (K, S), true on
    each row's own slots.  S is the pack's most slots, and every slot
    past a graph's own is zero.
    """

    x_enc: Tensor
    fused: Tensor
    flow: FlowGraph | np.ndarray
    mask: np.ndarray | None = None

    def rows(self, index: np.ndarray) -> Prepared:
        """The rows ``index`` of a pack, in that order (a row may
        repeat)."""
        x_enc, fused = ad.tensor(self.x_enc.data[index]), ad.tensor(self.fused.data[index])
        return Prepared(x_enc, fused, self.flow[index], self.mask[index])


class CaptionModel:
    def __init__(self, config: ModelConfig, vocab: Vocab, seed: int = 0):
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        self.encoder = init_encoder_params(config.dim, config.n_layers, config.max_attrs, rng)
        self.decoder = init_decoder_params(config.dim, len(vocab), rng)

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = list(self.encoder.named("encoder"))
        out += list(self.decoder.named("decoder"))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    @property
    def bos_id(self) -> int:
        return self.vocab.bos_id

    @property
    def eos_id(self) -> int:
        return self.vocab.eos_id

    def token_text(self, token_id: int) -> str:
        return self.vocab.tokens[token_id]

    # -- forward ------------------------------------------------------------

    def prepare(self, g: SceneGraph, feats: FeatureBundle) -> Prepared:
        flow, mrg, agg = _graph_structures(g.nodes, g.edges)
        x_enc, fused = encode(
            g,
            feats,
            self.encoder,
            use_role=self.config.use_role_embed,
            n_layers=self.config.n_layers if self.config.use_mrgcn else 0,
            mrg=mrg,
            agg=agg,
        )
        return Prepared(x_enc=x_enc, fused=fused, flow=flow)

    def pack(self, graphs: list[Prepared]) -> Prepared:
        """Prepared graphs as the rows of one pack, zero-padded to the
        most slots of any of them."""
        n_slots = max(p.flow.n_slots for p in graphs)
        x = np.zeros((len(graphs), n_slots, self.config.dim))
        flow = np.zeros((len(graphs), n_slots, n_slots))
        mask = np.zeros((len(graphs), n_slots), dtype=bool)
        for row, p in enumerate(graphs):
            own = p.flow.n_slots
            x[row, :own] = p.x_enc.data
            flow[row, :own, :own] = p.flow.matrix
            mask[row, :own] = True
        return Prepared(ad.tensor(x), ad.tensor(np.stack([p.fused.data for p in graphs])), flow, mask)

    def initial_state(self, prepared: Prepared) -> DecoderState:
        return dec.init_state(prepared.x_enc, prepared.flow)

    def _step(self, prepared: Prepared, state: DecoderState, prev_id):
        """Advance one decode step: returns (new state, token probability
        tensor, flow modes, fusion gate, sentinel); each of the last three
        is None when its component is switched off.  ``prev_id`` is an
        int for an unbatched state, or an int array of K ids for a state
        whose fields carry a leading axis of K rows (see beam_search);
        with a pack's rows as ``prepared``, row k reads row k's graph."""
        p = self.decoder
        w_prev = ad.tslice(p.word_emb, prev_id)
        h_att, c_att = dec.attention_query_step(p, state, prepared.fused, w_prev)

        alpha_c = (
            dec.content_attention(p, state.x_nodes, h_att, prepared.mask)
            if self.config.use_content_attention
            else None
        )
        modes = None
        alpha_f = None
        if self.config.use_flow_attention:
            alpha_f, modes = dec.flow_attention(p, prepared.flow, state.alpha, h_att, state.z)
        alpha, context, beta = dec.fuse_and_context(
            p, alpha_c, alpha_f, h_att, state.z, state.x_nodes
        )
        h_lang, c_lang, probs = dec.language_step(p, state, context, h_att)
        if self.config.use_graph_update:
            x_next, sentinel = dec.graph_update(p, state.x_nodes, h_lang, alpha)
        else:
            x_next, sentinel = state.x_nodes, None

        new_state = DecoderState(
            x_nodes=x_next,
            h_att=h_att,
            c_att=c_att,
            h_lang=h_lang,
            c_lang=c_lang,
            alpha=alpha,
            z=context,
        )
        return new_state, probs, modes, beta, sentinel

    def step(self, prepared: Prepared, state: DecoderState, prev_id):
        """Decoding-facing step: returns the fresh state that ``_step``
        built (no primitive writes into its inputs, so states are never
        shared mutably) and the log-probabilities as an array, with one
        row per state row when batched."""
        new_state, probs, *_ = self._step(prepared, state, prev_id)
        return new_state, np.log(np.maximum(probs.data, 1e-300))

    # -- training loss ------------------------------------------------------

    def loss(self, g: SceneGraph, feats: FeatureBundle, caption_ids: list[int]) -> tuple[Tensor, int]:
        """Teacher-forced mean cross entropy per target token (the
        caption plus the end token)."""
        prepared = self.prepare(g, feats)
        state = self.initial_state(prepared)
        inputs = [self.bos_id] + list(caption_ids)
        targets = list(caption_ids) + [self.eos_id]
        probs = []
        for prev_id in inputs:
            state, p, *_ = self._step(prepared, state, prev_id)
            probs.append(p)
        return ad.mean_nll(probs, targets), len(targets)

    # -- decoding -------------------------------------------------------------

    def decode(self, g: SceneGraph, feats: FeatureBundle, beam: int = 5, max_len: int = 20):
        """Beam (or greedy, beam=1) decode, a pack of one request:
        returns the hypothesis list from the search, best first."""
        return dec.beam_search(self, [(g, feats, beam)], max_len=max_len, eos_id=self.eos_id)[0]

    def caption_tokens(self, g: SceneGraph, feats: FeatureBundle, beam: int = 5, max_len: int = 20) -> list[str]:
        return self._words(self.decode(g, feats, beam=beam, max_len=max_len)[0])

    def caption_pack(self, requests, max_len: int = 20) -> list[list[str]]:
        """The best caption of each ``(graph, feats, width)`` request,
        all decoded as one packed search; each is the caption that
        ``caption_tokens`` gives the request alone."""
        searched = dec.beam_search(self, requests, max_len=max_len, eos_id=self.eos_id)
        return [self._words(hyps[0]) for hyps in searched]

    def _words(self, hyp: dec.Hypothesis) -> list[str]:
        """A hypothesis's words, end token excluded."""
        return self.vocab.decode([t for t in hyp.tokens if t != self.eos_id])


@lru_cache(maxsize=512)
def _graph_structures(nodes, edges):
    """Flow graph and relational aggregation are pure functions of the
    structure; cache them across the repeated passes of training,
    decoding, and gradient checking."""
    g = SceneGraph(nodes=nodes, edges=edges)
    mrg = build_multirel(g)
    return build_flow(g), mrg, aggregation_matrices(mrg)
