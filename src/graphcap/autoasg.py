"""Automatic control-graph generation from box proposals.

Mirrors a detection pipeline at desk scale: jittered duplicates of the
true boxes play the role of proposals, Gaussian soft-NMS thins them,
surviving boxes become object nodes, and a small classifier decides for
each pair whether a relationship node should join them (class 0 = none,
1 = first-to-second, 2 = second-to-first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .graph import Node, NodeRole, SceneGraph
from .optim import OptimizerState, adam_step
from .worldgen import Scene, WorldConfig, gen_scene, scene_features

__all__ = [
    "iou",
    "soft_nms",
    "jitter_proposals",
    "spatial_feature",
    "RelClassifierParams",
    "init_rel_classifier",
    "classify_relation",
    "train_relation_classifier",
    "auto_generate_asg",
]

Box = tuple[float, float, float, float]


def iou(a: Box, b: Box) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def soft_nms(
    boxes: list[Box],
    scores: list[float],
    sigma: float = 0.5,
    score_floor: float = 1e-3,
) -> tuple[list[Box], list[float], list[int]]:
    """Gaussian-decay suppression.

    Repeatedly select the highest-scoring remaining box, then multiply
    every other remaining score by exp(-iou^2 / sigma) against it; boxes
    decayed below ``score_floor`` are dropped.  Returns the kept boxes
    with their decayed scores (in selection order) plus their indices
    into the input.  Scores never increase.
    """
    if len(boxes) != len(scores):
        raise ShapeError("boxes and scores length mismatch")
    if any(not (0.0 <= s <= 1.0) for s in scores):
        raise ShapeError("scores must lie in [0, 1]")
    remaining = list(range(len(boxes)))
    current = list(scores)
    kept_boxes: list[Box] = []
    kept_scores: list[float] = []
    kept_idx: list[int] = []
    while remaining:
        best = max(remaining, key=lambda i: current[i])
        kept_boxes.append(boxes[best])
        kept_scores.append(current[best])
        kept_idx.append(best)
        remaining.remove(best)
        still = []
        for i in remaining:
            ov = iou(boxes[best], boxes[i])
            current[i] *= float(np.exp(-(ov * ov) / sigma))
            if current[i] >= score_floor:
                still.append(i)
        remaining = still
    return kept_boxes, kept_scores, kept_idx


def jitter_proposals(
    scene: Scene, rng: np.random.Generator, n_dups: int = 2, pos_noise: float = 0.02
) -> tuple[list[Box], list[float]]:
    """True boxes plus noisy duplicates, so suppression has real work."""
    boxes: list[Box] = []
    scores: list[float] = []
    for obj in scene.objects:
        x, y, w, h = obj.box
        boxes.append(obj.box)
        scores.append(float(rng.uniform(0.8, 1.0)))
        for _ in range(n_dups):
            dx, dy = pos_noise * rng.normal(size=2)
            boxes.append((min(max(x + dx, 0.0), 1.0 - w), min(max(y + dy, 0.0), 1.0 - h), w, h))
            scores.append(float(rng.uniform(0.5, 0.9)))
    return boxes, scores


def spatial_feature(box_i: Box, box_j: Box) -> np.ndarray:
    """(dx, dy, log w-ratio, log h-ratio, iou); the deltas and ratios
    flip sign when the pair is swapped."""
    cxi, cyi = box_i[0] + box_i[2] / 2, box_i[1] + box_i[3] / 2
    cxj, cyj = box_j[0] + box_j[2] / 2, box_j[1] + box_j[3] / 2
    return np.array(
        [
            cxi - cxj,
            cyi - cyj,
            np.log(box_i[2] / box_j[2]),
            np.log(box_i[3] / box_j[3]),
            iou(box_i, box_j),
        ]
    )


# ---------------------------------------------------------------------------
# relation classifier
# ---------------------------------------------------------------------------


@dataclass
class RelClassifierParams:
    w1: Tensor  # (3d+5, hidden)
    b1: Tensor
    w2: Tensor  # (hidden, 3)
    b2: Tensor

    def params(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]


def init_rel_classifier(dim: int, hidden: int, rng: np.random.Generator) -> RelClassifierParams:
    n_in = 3 * dim + 5
    return RelClassifierParams(
        w1=ad.parameter(rng.normal(0, 1 / np.sqrt(n_in), size=(n_in, hidden))),
        b1=ad.parameter(np.zeros(hidden)),
        w2=ad.parameter(rng.normal(0, 1 / np.sqrt(hidden), size=(hidden, 3))),
        b2=ad.parameter(np.zeros(3)),
    )


def _clf_logits(params: RelClassifierParams, x: Tensor) -> Tensor:
    h = ad.relu(ad.add(ad.matmul(x, params.w1), params.b1))
    return ad.add(ad.matmul(h, params.w2), params.b2)


def classify_relation(
    params: RelClassifierParams,
    global_feat: np.ndarray,
    feat_i: np.ndarray,
    feat_j: np.ndarray,
    spatial_ij: np.ndarray,
) -> np.ndarray:
    """Probabilities over {none, i-to-j, j-to-i}."""
    x = ad.tensor(np.concatenate([global_feat, feat_i, feat_j, spatial_ij]))
    return ad.softmax(_clf_logits(params, x)).data


def _pair_examples(scene: Scene, cfg: WorldConfig):
    obj_vecs, _rel_vecs, global_vec = scene_features(scene, cfg)
    directed = {}
    for s, _cls, o in scene.relations:
        directed[(s, o)] = 1
        directed[(o, s)] = 2
    out = []
    n = len(scene.objects)
    for i in range(n):
        for j in range(i + 1, n):
            label = directed.get((i, j), 0)
            x = np.concatenate(
                [
                    global_vec,
                    obj_vecs[i],
                    obj_vecs[j],
                    spatial_feature(scene.objects[i].box, scene.objects[j].box),
                ]
            )
            out.append((x, label))
    return out


def train_relation_classifier(
    cfg: WorldConfig,
    n_scenes: int = 200,
    seed: int = 0,
    hidden: int = 32,
    epochs: int = 8,
    lr: float = 3e-3,
) -> RelClassifierParams:
    """Train on class-balanced pair examples (none : fwd : rev = 2:1:1)."""
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n_scenes):
        examples.extend(_pair_examples(gen_scene(cfg, rng), cfg))
    by_label = {0: [], 1: [], 2: []}
    for x, y in examples:
        by_label[y].append(x)
    missing = [label for label, pool in by_label.items() if not pool]
    if missing:
        raise ShapeError(f"{n_scenes} training scenes give no pair examples of class {missing}")
    k = min(len(by_label[1]), len(by_label[2]), max(1, len(by_label[0]) // 2))
    batch_x, batch_y = [], []
    for label, quota in ((0, 2 * k), (1, k), (2, k)):
        pool = by_label[label]
        idx = rng.integers(len(pool), size=quota)
        batch_x.extend(pool[i] for i in idx)
        batch_y.extend([label] * quota)
    order = rng.permutation(len(batch_x))
    xs = np.stack([batch_x[i] for i in order])
    ys = np.array([batch_y[i] for i in order], dtype=np.intp)

    params = init_rel_classifier(cfg.dim, hidden, rng)
    opt = OptimizerState(lr=lr)
    for _ in range(epochs):
        ad.zero_grads(params.params())
        with ad.record() as tape:
            loss = ad.cross_entropy(_clf_logits(params, ad.tensor(xs)), ys)
        ad.backward(tape, loss)
        adam_step(opt, params.params(), [p.grad for p in params.params()])
    return params


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def auto_generate_asg(
    scene: Scene,
    proposals: tuple[list[Box], list[float]],
    clf: RelClassifierParams,
    cfg: WorldConfig,
    threshold: float = 0.5,
    keep_score: float = 0.35,
    nms_sigma: float = 0.5,
) -> SceneGraph:
    """Proposals -> soft-NMS -> object nodes; each surviving pair gets a
    relationship node iff P(no relation) falls below ``threshold``,
    directed by the larger of the two directional probabilities.

    Relationship nodes are grounded in the matching true scene relation
    when one exists, else region -1 (feature falls back to the endpoint
    blend).
    """
    boxes, scores = proposals
    kept_boxes, kept_scores, _ = soft_nms(boxes, scores, sigma=nms_sigma)
    obj_vecs, _rel, global_vec = scene_features(scene, cfg)

    chosen: dict[int, tuple[float, Box]] = {}
    for box, score in zip(kept_boxes, kept_scores):
        if score < keep_score:
            continue
        region = int(
            np.argmax([iou(box, obj.box) for obj in scene.objects])
        )
        if region not in chosen or score > chosen[region][0]:
            chosen[region] = (score, box)

    regions = sorted(chosen)
    nodes = [Node(id=i, role=NodeRole.OBJECT, region=r) for i, r in enumerate(regions)]
    edges: list[tuple[int, int]] = []
    true_rel = {(s, o): k for k, (s, _c, o) in enumerate(scene.relations)}

    next_id = len(nodes)
    for a in range(len(regions)):
        for b in range(a + 1, len(regions)):
            ri, rj = regions[a], regions[b]
            probs = classify_relation(
                clf,
                global_vec,
                obj_vecs[ri],
                obj_vecs[rj],
                spatial_feature(chosen[ri][1], chosen[rj][1]),
            )
            if probs[0] >= threshold:
                continue
            subj_local, obj_local = (a, b) if probs[1] >= probs[2] else (b, a)
            subj_r, obj_r = regions[subj_local], regions[obj_local]
            region = true_rel.get((subj_r, obj_r), -1)
            nodes.append(Node(id=next_id, role=NodeRole.RELATIONSHIP, region=region))
            edges.append((subj_local, next_id))
            edges.append((next_id, obj_local))
            next_id += 1
    return SceneGraph(nodes=tuple(nodes), edges=tuple(edges))
