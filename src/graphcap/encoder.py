"""Role-aware graph encoder.

Nodes start from their grounded visual features, modulated elementwise
by a per-role embedding (attribute nodes additionally receive a
positional embedding distinguishing first/second/... attributes of the
same object).  Stacked multi-relational graph convolution layers then
mix information along the six typed edge directions, averaging within
each relation kind.  The per-graph summary vector fuses the mean node
embedding with the global scene feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .graph import RELATION_KINDS, MultiRelGraph, NodeRole, SceneGraph, build_multirel

__all__ = ["EncoderParams", "LayerParams", "role_embed", "mrgcn_layer", "encode", "FeatureBundle"]

ROLE_INDEX = {NodeRole.OBJECT: 0, NodeRole.ATTRIBUTE: 1, NodeRole.RELATIONSHIP: 2}


@dataclass
class FeatureBundle:
    """Per-node visual features plus the global scene vector.

    Row i aligns with node id i.  Attribute rows duplicate their
    object's row; relationship rows come from the union of the two
    endpoint regions.
    """

    node_features: np.ndarray  # (n_nodes, d)
    scene_feature: np.ndarray  # (d,)


@dataclass
class LayerParams:
    w_self: Tensor
    w_rel: dict[str, Tensor]

    def named(self, prefix: str):
        yield f"{prefix}.w_self", self.w_self
        for kind in RELATION_KINDS:
            yield f"{prefix}.w_{kind}", self.w_rel[kind]


@dataclass
class EncoderParams:
    role_table: Tensor  # (3, d), multiplicative
    pos_table: Tensor  # (max_attrs, d), additive on the attribute role row
    layers: list[LayerParams]
    w_fuse: Tensor  # (2d, d)
    start_embed: Tensor  # (d,)

    @property
    def dim(self) -> int:
        return self.role_table.data.shape[1]

    @property
    def max_attrs(self) -> int:
        return self.pos_table.data.shape[0]

    def named(self, prefix: str = "encoder"):
        yield f"{prefix}.role_table", self.role_table
        yield f"{prefix}.pos_table", self.pos_table
        for i, layer in enumerate(self.layers):
            yield from layer.named(f"{prefix}.layer{i}")
        yield f"{prefix}.w_fuse", self.w_fuse
        yield f"{prefix}.start_embed", self.start_embed


def init_encoder_params(dim: int, n_layers: int, max_attrs: int, rng: np.random.Generator) -> EncoderParams:
    """Role rows start near one (multiplicative identity), position rows
    near zero, weight matrices at 1/sqrt(fan_in) scale."""

    def mat(n_in, n_out):
        return ad.parameter(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))

    layers = [
        LayerParams(
            w_self=mat(dim, dim),
            w_rel={k: mat(dim, dim) for k in RELATION_KINDS},
        )
        for _ in range(n_layers)
    ]
    return EncoderParams(
        role_table=ad.parameter(1.0 + 0.1 * rng.normal(size=(3, dim))),
        pos_table=ad.parameter(0.1 * rng.normal(size=(max_attrs, dim))),
        layers=layers,
        w_fuse=mat(2 * dim, dim),
        start_embed=ad.parameter(0.1 * rng.normal(size=(dim,))),
    )


def role_embed(g: SceneGraph, feats: FeatureBundle, params: EncoderParams) -> Tensor:
    """Initial node embeddings: feature * role row, with the attribute
    position row added to the attribute role before the product."""
    n = g.n_nodes
    if feats.node_features.shape[0] != n:
        raise ShapeError("feature rows do not align with graph nodes")
    roles = np.array([ROLE_INDEX[node.role] for node in g.nodes], dtype=np.intp)
    pos_idx = np.zeros(n, dtype=np.intp)
    attr_mask = np.zeros((n, 1), dtype=np.float64)
    for node in g.nodes:
        if node.role is NodeRole.ATTRIBUTE:
            k = g.attr_position(node.id)
            if k >= params.max_attrs:
                raise ShapeError(
                    f"attribute position {k} exceeds positional table size {params.max_attrs}"
                )
            pos_idx[node.id] = k
            attr_mask[node.id, 0] = 1.0

    rt, pt, f = params.role_table, params.pos_table, feats.node_features
    modulation = rt.data[roles] + pt.data[pos_idx] * attr_mask

    def bwd(g):
        g_mod = g * f
        g_role = np.zeros_like(rt.data)
        np.add.at(g_role, roles, g_mod)
        g_pos = np.zeros_like(pt.data)
        np.add.at(g_pos, pos_idx, g_mod * attr_mask)
        return g_role, g_pos

    return ad.primitive((rt, pt), f * modulation, bwd)


def aggregation_matrices(mrg: MultiRelGraph) -> dict[str, np.ndarray]:
    """Per relation kind, the neighbor-averaging matrix A with
    A[i, j] = 1/|N_i| for each neighbor j of i under that kind."""
    out = {}
    for kind, edges in mrg.relations.items():
        if not edges:
            continue
        a = np.zeros((mrg.n_nodes, mrg.n_nodes))
        for s, d in edges:
            a[d, s] += 1.0  # edge (s -> d) delivers s's features to d
        deg = a.sum(axis=1, keepdims=True)
        np.divide(a, deg, out=a, where=deg > 0)
        out[kind] = a
    return out


def mrgcn_layer(
    mrg: MultiRelGraph,
    x: Tensor,
    layer: LayerParams,
    agg: dict[str, np.ndarray] | None = None,
) -> Tensor:
    """One relational convolution, relu(X W_self + sum_r A_r X W_r), as
    one primitive over the relations present (the per-relation block
    form of Schlichtkrull et al., arXiv 1703.06103)."""
    if agg is None:
        agg = aggregation_matrices(mrg)
    kinds = list(agg)
    w_self, w_rel = layer.w_self, [layer.w_rel[k] for k in kinds]
    xd = x.data
    acc = xd @ w_self.data
    for k, w in zip(kinds, w_rel):
        acc = acc + agg[k] @ (xd @ w.data)

    def bwd(g):
        g = g * (acc > 0)
        g_x = g @ w_self.data.T
        g_w = [(xd, g)]
        for k, w in zip(kinds, w_rel):
            g_msg = agg[k].T @ g
            g_x = g_x + g_msg @ w.data.T
            g_w.append((xd, g_msg))
        return (g_x, *g_w)

    return ad.primitive((x, w_self, *w_rel), np.maximum(acc, 0.0), bwd)


def encode(
    g: SceneGraph,
    feats: FeatureBundle,
    params: EncoderParams,
    use_role: bool = True,
    n_layers: int | None = None,
    mrg: MultiRelGraph | None = None,
    agg: dict[str, np.ndarray] | None = None,
) -> tuple[Tensor, Tensor]:
    """Full encoding pass.

    Returns (X, fused) where X has the start slot stacked at row 0
    followed by one row per graph node, and fused is the global vector
    feeding the decoder query cell.  ``n_layers`` trims the configured
    stack (0 disables graph convolution entirely).  Callers repeating
    the same graph may pass precomputed ``mrg``/``agg`` structures.
    """
    if use_role:
        x = role_embed(g, feats, params)
    else:
        x = ad.tensor(feats.node_features)
    depth = len(params.layers) if n_layers is None else n_layers
    if depth > len(params.layers):
        raise ShapeError(f"requested {depth} layers, have {len(params.layers)}")
    if depth:
        if mrg is None:
            mrg = build_multirel(g)
        if agg is None:
            agg = aggregation_matrices(mrg)
        for layer in params.layers[:depth]:
            x = mrgcn_layer(mrg, x, layer, agg)

    g_mean = ad.tmean(x, axis=0)
    fused = ad.relu(
        ad.matmul(ad.concat([g_mean, ad.tensor(feats.scene_feature)], axis=0), params.w_fuse)
    )
    x_full = ad.concat([ad.reshape(params.start_embed, (1, params.dim)), x], axis=0)
    return x_full, fused
