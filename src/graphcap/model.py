"""The assembled caption model: encoder + decoder + loss + decoding.

The model owns all parameters, the vocabulary, and the component
switches.  A forward pass prepares a graph once (node embeddings, fused
scene vector, flow matrix) as a pack of one row, and then steps the
decoder token by token.  The same step function serves teacher-forced
training, greedy decoding and the attention trace, which step one row,
and beam search, which steps all its live hypotheses at once as the
rows of one state.  Every state and pack has K rows; there is no other
form.  The output layer is outside the step: decoding applies it to
each step's rows, and the training loss applies it once to the language
states of the whole caption, fused with the cross entropy in one
primitive.  Beam search also joins the packs of several graphs into one
search (``caption_pack``): each graph's slots are zero-padded to the
pack's most slots and masked (``CaptionModel.pack``).
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
from .jsonio import check_field_types
from .graph import SceneGraph, build_flow, build_multirel
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
        check_field_types(self)
        if not (self.use_content_attention or self.use_flow_attention):
            raise ShapeError("at least one attention branch must stay enabled")
        if self.dim < 1 or self.n_layers < 0 or self.max_attrs < 0:
            raise ShapeError("bad model dimensions")


@dataclass
class Prepared:
    """Encoder outputs of the K rows of a pack, shared by all decode
    steps: the slot embeddings ``x_enc`` (K, S, d), the fused scene
    vectors ``fused`` (K, d), the flow matrices ``flow`` (K, S, S) and
    the additive slot masks ``mask`` (K, S), 0 on a row's own slots and
    -inf past them.  ``CaptionModel.prepare`` gives a pack of one graph;
    ``CaptionModel.pack`` joins packs, and S is then the most slots of
    any of them, every slot past a graph's own being zero.
    """

    x_enc: Tensor
    fused: Tensor
    flow: np.ndarray
    mask: np.ndarray

    def rows(self, index: np.ndarray) -> Prepared:
        """The step inputs of the rows ``index``, in that order (a row
        may repeat).  ``x_enc`` is kept as it is: only ``initial_state``
        reads it, and a state carries its rows' slot embeddings."""
        return Prepared(self.x_enc, ad.tensor(self.fused.data[index]), self.flow[index], self.mask[index])


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
        """The encoder outputs of one graph, as a pack of one row (the
        lift is one tape entry, so the pack stays differentiable)."""
        flow, mask, mrg, agg = _graph_structures(g.nodes, g.edges)
        x_enc, fused = encode(
            g,
            feats,
            self.encoder,
            use_role=self.config.use_role_embed,
            n_layers=self.config.n_layers if self.config.use_mrgcn else 0,
            mrg=mrg,
            agg=agg,
        )
        x_enc, fused = ad.primitive((x_enc, fused), (x_enc.data[None], fused.data[None]), lambda gx, gf: (gx[0], gf[0]))
        return Prepared(x_enc, fused, flow, mask)

    def pack(self, packs: list[Prepared]) -> Prepared:
        """Packs joined into one: their rows in order, each zero-padded
        to the most slots of any of them.  A lone pack is itself (every
        single-request decode)."""
        if len(packs) == 1:
            return packs[0]
        n_slots = max(p.mask.shape[1] for p in packs)
        rows = sum(len(p.mask) for p in packs)
        x = np.zeros((rows, n_slots, self.config.dim))
        flow = np.zeros((rows, n_slots, n_slots))
        mask = np.full((rows, n_slots), -np.inf)
        row = 0
        for p in packs:
            k, own = p.mask.shape
            x[row : row + k, :own] = p.x_enc.data
            flow[row : row + k, :own, :own] = p.flow
            mask[row : row + k, :own] = p.mask
            row += k
        return Prepared(ad.tensor(x), ad.tensor(np.concatenate([p.fused.data for p in packs])), flow, mask)

    def initial_state(self, prepared: Prepared) -> DecoderState:
        return dec.init_state(prepared.x_enc, prepared.flow)

    def _step(self, prepared: Prepared, state: DecoderState, prev_ids: np.ndarray):
        """Advance one decode step of the K rows of ``state``, row k
        reading row k of ``prepared`` and the previous word
        ``prev_ids[k]`` (an int array of K ids).  Returns (new state,
        flow modes, fusion gate, sentinel); each of the last three is
        None when its component is switched off.  The next word's
        distribution is read off ``new_state.h_lang``."""
        p = self.decoder
        h_att, c_att = dec.attention_query_step(p, state, prepared.fused, (p.word_emb, prev_ids))

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
        h_lang, c_lang = dec.language_step(p, state, context, h_att)
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
        return new_state, modes, beta, sentinel

    def step(self, prepared: Prepared, state: DecoderState, prev_ids: np.ndarray):
        """Decoding-facing step over an int array of K previous ids:
        returns the fresh state that ``_step`` built (no primitive writes
        into its inputs, so states are never shared mutably) and the
        next word's log-probabilities (K, V), one row per state row."""
        new_state, *_ = self._step(prepared, state, prev_ids)
        return new_state, dec.output_log_probs(self.decoder, new_state.h_lang.data)

    # -- training loss ------------------------------------------------------

    def loss(self, g: SceneGraph, feats: FeatureBundle, caption_ids: list[int]) -> tuple[Tensor, int]:
        """Teacher-forced mean cross entropy per target token (the
        caption plus the end token): the decode step runs once per
        token on one row, and the output layer and the loss run once,
        over the stacked language states."""
        prepared = self.prepare(g, feats)
        state = self.initial_state(prepared)
        targets = list(caption_ids) + [self.eos_id]
        h_rows = []
        for prev_ids in np.array([self.bos_id] + list(caption_ids))[:, None]:
            state, *_ = self._step(prepared, state, prev_ids)
            h_rows.append(state.h_lang)
        return dec.output_loss(self.decoder, h_rows, targets), len(targets)

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
    """The flow matrix and slot mask of a pack of one, and the relational
    aggregation, are pure functions of the structure; cache them across
    the repeated passes of training, decoding, and gradient checking."""
    g = SceneGraph(nodes=nodes, edges=edges)
    flow, mrg = build_flow(g), build_multirel(g)
    matrix, mask = flow.matrix[None], np.zeros((1, flow.n_slots))
    matrix.flags.writeable = mask.flags.writeable = False  # shared by every caller
    return matrix, mask, mrg, aggregation_matrices(mrg)
