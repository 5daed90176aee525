"""The assembled caption model: encoder + decoder + loss + decoding.

The model owns all parameters, the vocabulary, and the component
switches.  A forward pass prepares a graph once (node embeddings, fused
scene vector, flow graph) and then steps the decoder token by token;
the same step function serves teacher-forced training, greedy decoding,
and beam search.
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
from .decoder import DecoderState, StepTrace, init_decoder_params

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

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "n_layers": self.n_layers,
            "max_attrs": self.max_attrs,
            "use_role_embed": self.use_role_embed,
            "use_mrgcn": self.use_mrgcn,
            "use_content_attention": self.use_content_attention,
            "use_flow_attention": self.use_flow_attention,
            "use_graph_update": self.use_graph_update,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


@dataclass
class Prepared:
    """Per-input encoder outputs shared by all decode steps."""

    x_enc: Tensor
    fused: Tensor
    flow: FlowGraph


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

    def initial_state(self, prepared: Prepared) -> DecoderState:
        return dec.init_state(prepared.x_enc, prepared.flow)

    def _step(self, prepared: Prepared, state: DecoderState, prev_id: int):
        """Advance one decode step: returns (new state, token probability
        tensor, flow modes, fusion gate, sentinel); each of the last three
        is None when its component is switched off."""
        p = self.decoder
        w_prev = ad.tslice(p.word_emb, prev_id)
        h_att, c_att = dec.attention_query_step(p, state, prepared.fused, w_prev)

        alpha_c = (
            dec.content_attention(p, state.x_nodes, h_att)
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
            t=state.t + 1,
        )
        return new_state, probs, modes, beta, sentinel

    def step(self, prepared: Prepared, state: DecoderState, prev_id: int):
        """Decoding-facing step: clones the state so beam hypotheses
        stay isolated, and returns log-probabilities as an array plus the
        step's attention trace (with an empty token)."""
        new_state, probs, modes, beta, sentinel = self._step(prepared, state, prev_id)
        log_probs = np.log(np.maximum(probs.data, 1e-300))
        trace = StepTrace(
            token="",
            alpha=[float(v) for v in new_state.alpha.data],
            beta=float(beta.data[0]) if beta is not None else None,
            modes=[float(v) for v in modes.data] if modes is not None else None,
            sentinel=float(sentinel.data[0]) if sentinel is not None else 1.0,
        )
        return _clone_state(new_state), log_probs, trace

    # -- training loss ------------------------------------------------------

    def loss(self, g: SceneGraph, feats: FeatureBundle, caption_ids: list[int]) -> tuple[Tensor, int]:
        """Teacher-forced mean cross entropy per target token (the
        caption plus the end token)."""
        prepared = self.prepare(g, feats)
        state = self.initial_state(prepared)
        inputs = [self.bos_id] + list(caption_ids)
        targets = list(caption_ids) + [self.eos_id]
        total = None
        for prev_id, target in zip(inputs, targets):
            state, probs, *_ = self._step(prepared, state, prev_id)
            lp = ad.log(ad.tslice(probs, slice(target, target + 1)))
            total = lp if total is None else ad.add(total, lp)
        loss = ad.smul(ad.tsum(total), -1.0 / len(targets))
        return loss, len(targets)

    # -- decoding -------------------------------------------------------------

    def decode(self, g: SceneGraph, feats: FeatureBundle, beam: int = 5, max_len: int = 20):
        """Beam (or greedy, beam=1) decode: returns the best hypothesis
        list from the search, tokens excluding the end token."""
        return dec.beam_search(self, g, feats, beam=beam, max_len=max_len, eos_id=self.eos_id)

    def caption_tokens(self, g: SceneGraph, feats: FeatureBundle, beam: int = 5, max_len: int = 20) -> list[str]:
        best = self.decode(g, feats, beam=beam, max_len=max_len)[0]
        ids = [t for t in best.tokens if t != self.eos_id]
        return self.vocab.decode(ids)


@lru_cache(maxsize=512)
def _graph_structures(nodes, edges):
    """Flow graph and relational aggregation are pure functions of the
    structure; cache them across the repeated passes of training,
    decoding, and gradient checking."""
    g = SceneGraph(nodes=nodes, edges=edges)
    mrg = build_multirel(g)
    return build_flow(g), mrg, aggregation_matrices(mrg)


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
