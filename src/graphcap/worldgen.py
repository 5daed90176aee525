"""Synthetic grounded scenes standing in for images.

A scene is a handful of boxed objects in the unit square, each with a
class, a sorted list of attribute classes, and a few relations between
object pairs.  Spatial relation classes (left-of/right-of/above/below)
are always consistent with box centers; the rest are sampled.

Features are prototype sums: every class, attribute class, and relation
class owns a fixed random unit vector (derived from the world's
prototype seed), and a node's feature is its prototype sum plus
Gaussian noise drawn deterministically from the scene seed.  Attribute
nodes copy their object's vector exactly; relationship nodes blend the
two endpoint vectors with the relation prototype (the union-region
analogue).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import FeatureBundle
from .errors import InvalidGraphError, NoRelationshipsError, ShapeError
from .grammar import Grammar
from .graph import Node, NodeRole, SceneGraph, sample_subgraph, validate_asg
from .jsonio import decoding, read_json, read_jsonl

__all__ = [
    "WorldConfig",
    "read_world",
    "SceneObject",
    "Scene",
    "gen_scene",
    "scene_features",
    "features_for",
    "full_scene_graph",
    "single_object_graph",
    "make_triplet",
    "gen_dataset",
    "scene_to_json",
    "scene_from_json",
    "save_scenes",
    "load_scenes",
]

N_SPATIAL = 4  # leading relation classes with geometric meaning


@dataclass(frozen=True)
class WorldConfig:
    n_object_classes: int = 8
    n_attr_classes: int = 6
    n_rel_classes: int = 6
    dim: int = 64
    noise: float = 0.1
    min_objects: int = 2
    max_objects: int = 6
    max_attrs_per_object: int = 3
    prototype_seed: int = 7

    def __post_init__(self):
        if min(self.n_object_classes, self.n_attr_classes, self.n_rel_classes) < 2:
            raise ValueError("class counts must be >= 2")
        if self.noise < 0:
            raise ValueError("noise scale must be >= 0")
        if not (1 <= self.min_objects <= self.max_objects):
            raise ValueError("bad object-count range")
        if not 0 <= self.max_attrs_per_object <= 3:
            raise ValueError("max_attrs_per_object must be in 0..3")
        if self.dim < 1 or self.prototype_seed < 0:
            raise ValueError("dim must be >= 1 and prototype_seed >= 0")
        self.grammar()  # the word lists bound the class counts

    def grammar(self) -> Grammar:
        return Grammar(self.n_object_classes, self.n_attr_classes, self.n_rel_classes)

    @classmethod
    def from_json(cls, obj: dict) -> "WorldConfig":
        return cls(**obj)


def read_world(path: str | Path) -> WorldConfig:
    """The world config in ``path``; an unknown key or a bad value
    raises ``ShapeError``, as malformed JSON does."""
    try:
        return WorldConfig.from_json(read_json(path))
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"bad world config {path}: {exc}") from None


@dataclass(frozen=True)
class SceneObject:
    cls: int
    attrs: tuple[int, ...]  # sorted ascending, 0..max_attrs entries
    box: tuple[float, float, float, float]  # (x, y, w, h), y grows upward

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + w / 2.0, y + h / 2.0)


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]
    relations: tuple[tuple[int, int, int], ...]  # (subj_idx, rel_cls, obj_idx)
    seed: int


def _spatial_label(ci, cj) -> list[int]:
    """Relation classes whose geometric predicate holds for subject
    center ci against object center cj."""
    out = []
    if ci[0] < cj[0]:
        out.append(0)  # left-of
    if ci[0] > cj[0]:
        out.append(1)  # right-of
    if ci[1] > cj[1]:
        out.append(2)  # above
    if ci[1] < cj[1]:
        out.append(3)  # below
    return out


def gen_scene(cfg: WorldConfig, rng: np.random.Generator) -> Scene:
    """Sample one scene: objects with non-degenerate boxes, sorted
    attribute sets, and 1-4 relations over distinct unordered pairs."""
    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objects = []
    for _ in range(n):
        w = float(rng.uniform(0.08, 0.35))
        h = float(rng.uniform(0.08, 0.35))
        x = float(rng.uniform(0.0, 1.0 - w))
        y = float(rng.uniform(0.0, 1.0 - h))
        n_attr = int(rng.choice(cfg.max_attrs_per_object + 1, p=_attr_count_probs(cfg)))
        n_attr = min(n_attr, cfg.n_attr_classes)
        attrs = tuple(sorted(rng.choice(cfg.n_attr_classes, size=n_attr, replace=False).tolist()))
        objects.append(SceneObject(cls=int(rng.integers(cfg.n_object_classes)), attrs=attrs, box=(x, y, w, h)))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    n_rel = min(int(rng.integers(1, 5)), len(pairs))
    n_spatial = min(N_SPATIAL, cfg.n_rel_classes)
    relations = []
    for i, j in pairs[:n_rel]:
        ci, cj = objects[i].center, objects[j].center
        use_spatial = cfg.n_rel_classes <= N_SPATIAL or rng.random() < 0.5
        if use_spatial:
            cands = [(lbl, i, j) for lbl in _spatial_label(ci, cj) if lbl < n_spatial]
            cands += [(lbl, j, i) for lbl in _spatial_label(cj, ci) if lbl < n_spatial]
            if not cands:  # exactly tied centers on the configured axes
                continue
            lbl, s, o = cands[rng.integers(len(cands))]
            relations.append((s, lbl, o))
        else:
            lbl = int(rng.integers(N_SPATIAL, cfg.n_rel_classes))
            s, o = (i, j) if rng.random() < 0.5 else (j, i)
            relations.append((s, lbl, o))
    return Scene(objects=tuple(objects), relations=tuple(relations), seed=int(rng.integers(2**31)))


def _attr_count_probs(cfg: WorldConfig) -> np.ndarray:
    base = np.array([0.15, 0.45, 0.3, 0.1][: cfg.max_attrs_per_object + 1])
    return base / base.sum()


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def _prototypes(cfg: WorldConfig):
    rng = np.random.default_rng(cfg.prototype_seed)

    def unit_rows(n):
        m = rng.normal(size=(n, cfg.dim))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    return unit_rows(cfg.n_object_classes), unit_rows(cfg.n_attr_classes), unit_rows(cfg.n_rel_classes)


def scene_features(scene: Scene, cfg: WorldConfig):
    """Deterministic per-scene features: (object vectors, relation
    vectors, global vector)."""
    obj_proto, attr_proto, rel_proto = _prototypes(cfg)
    noise_rng = np.random.default_rng(scene.seed)
    obj_vecs = np.zeros((len(scene.objects), cfg.dim))
    for i, obj in enumerate(scene.objects):
        v = obj_proto[obj.cls].copy()
        for a in obj.attrs:
            v += attr_proto[a]
        v += cfg.noise * noise_rng.normal(size=cfg.dim)
        obj_vecs[i] = v
    rel_vecs = np.zeros((len(scene.relations), cfg.dim))
    for k, (s, cls, o) in enumerate(scene.relations):
        rel_vecs[k] = (
            rel_proto[cls]
            + 0.5 * (obj_vecs[s] + obj_vecs[o])
            + cfg.noise * noise_rng.normal(size=cfg.dim)
        )
    global_vec = obj_vecs.mean(axis=0)
    return obj_vecs, rel_vecs, global_vec


def features_for(scene: Scene, g: SceneGraph, cfg: WorldConfig) -> FeatureBundle:
    """Assemble per-node features for a graph grounded in the scene."""
    obj_vecs, rel_vecs, global_vec = scene_features(scene, cfg)
    feats = np.zeros((g.n_nodes, cfg.dim))
    triple_of = {r: (s, o) for s, r, o in g.relationship_triples()}
    for node in g.nodes:
        if node.role is NodeRole.RELATIONSHIP:
            if node.region >= len(rel_vecs):
                raise InvalidGraphError(f"relationship node {node.id} region {node.region} dangling")
            if node.region >= 0:
                feats[node.id] = rel_vecs[node.region]
            elif node.id not in triple_of:
                raise InvalidGraphError(
                    f"relationship node {node.id} has no region and no subject-object triple"
                )
            else:
                s, o = triple_of[node.id]
                feats[node.id] = 0.5 * (
                    obj_vecs[g.nodes[s].region] + obj_vecs[g.nodes[o].region]
                )
        else:
            if not (0 <= node.region < len(obj_vecs)):
                raise InvalidGraphError(f"node {node.id} region {node.region} dangling")
            feats[node.id] = obj_vecs[node.region]
    return FeatureBundle(node_features=feats, scene_feature=global_vec)


# ---------------------------------------------------------------------------
# graphs over scenes
# ---------------------------------------------------------------------------


def full_scene_graph(scene: Scene) -> SceneGraph:
    """The complete graph of a scene: every object, every attribute,
    every relation."""
    nodes: list[Node] = []
    edges: list[tuple[int, int]] = []
    order: dict[int, tuple[int, ...]] = {}
    obj_node = {}
    for i in range(len(scene.objects)):
        obj_node[i] = len(nodes)
        nodes.append(Node(id=len(nodes), role=NodeRole.OBJECT, region=i))
    for i, obj in enumerate(scene.objects):
        ids = []
        for _ in obj.attrs:
            nid = len(nodes)
            nodes.append(Node(id=nid, role=NodeRole.ATTRIBUTE, region=i))
            edges.append((obj_node[i], nid))
            ids.append(nid)
        if ids:
            order[obj_node[i]] = tuple(ids)
    for k, (s, _cls, o) in enumerate(scene.relations):
        nid = len(nodes)
        nodes.append(Node(id=nid, role=NodeRole.RELATIONSHIP, region=k))
        edges.append((obj_node[s], nid))
        edges.append((nid, obj_node[o]))
    return SceneGraph(nodes=tuple(nodes), edges=tuple(edges), attribute_order=order)


def single_object_graph(scene: Scene, obj_idx: int, n_attrs: int) -> SceneGraph:
    """Fallback control signal: one object with its first n attributes."""
    n_attrs = min(n_attrs, len(scene.objects[obj_idx].attrs))
    nodes = [Node(id=0, role=NodeRole.OBJECT, region=obj_idx)]
    edges = []
    ids = []
    for k in range(n_attrs):
        nodes.append(Node(id=1 + k, role=NodeRole.ATTRIBUTE, region=obj_idx))
        edges.append((0, 1 + k))
        ids.append(1 + k)
    order = {0: tuple(ids)} if ids else {}
    return SceneGraph(nodes=tuple(nodes), edges=tuple(edges), attribute_order=order)


def make_triplet(scene: Scene, sub: SceneGraph, cfg: WorldConfig, grammar: Grammar | None = None):
    """(features, control graph, caption tokens) for one instance.  The
    graph carries only roles, edges, and groundings; the caption comes
    from the scene's labels."""
    grammar = grammar or cfg.grammar()
    violations = validate_asg(sub)
    if violations:
        raise InvalidGraphError("; ".join(violations))
    feats = features_for(scene, sub, cfg)
    caption = grammar.render_caption(scene, sub)
    return feats, sub, caption


def gen_dataset(cfg: WorldConfig, n_triplets: int, seed: int, triplets_per_scene: int = 4):
    """Scenes plus (scene_id, graph, caption) rows; a quarter of the
    rows use single-object graphs so existence clauses stay covered."""
    rng = np.random.default_rng(seed)
    scenes: list[Scene] = []
    rows = []
    while len(rows) < n_triplets:
        scene = gen_scene(cfg, rng)
        sid = len(scenes)
        scenes.append(scene)
        g_full = full_scene_graph(scene)
        for _ in range(triplets_per_scene):
            if len(rows) >= n_triplets:
                break
            if rng.random() < 0.25:
                obj_idx = int(rng.integers(len(scene.objects)))
                max_a = len(scene.objects[obj_idx].attrs)
                sub = single_object_graph(scene, obj_idx, int(rng.integers(0, max_a + 1)))
            else:
                try:
                    sub = sample_subgraph(g_full, rng)
                except NoRelationshipsError:
                    sub = single_object_graph(scene, int(rng.integers(len(scene.objects))), 1)
            rows.append((sid, sub))
    grammar = cfg.grammar()
    triplets = []
    for sid, sub in rows:
        caption = grammar.render_caption(scenes[sid], sub)
        triplets.append({"scene_id": sid, "graph": sub, "caption": caption})
    return scenes, triplets


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def scene_to_json(scene: Scene) -> dict:
    return {
        "objects": [
            {"cls": o.cls, "attrs": list(o.attrs), "box": list(o.box)} for o in scene.objects
        ],
        "relations": [list(r) for r in scene.relations],
        "seed": scene.seed,
    }


def scene_from_json(obj: dict, what="scene") -> Scene:
    """A scene from its JSON object; a missing key or a value of the
    wrong type raises ``ShapeError``."""
    with decoding(what):
        objects = tuple(
            SceneObject(
                cls=int(o["cls"]),
                attrs=tuple(int(a) for a in o["attrs"]),
                box=tuple(float(v) for v in o["box"]),
            )
            for o in obj["objects"]
        )
        if any(len(o.box) != 4 for o in objects):
            raise ShapeError(f"{what}: a box needs four numbers")
        relations = tuple((int(s), int(c), int(o)) for s, c, o in obj["relations"])
        return Scene(objects=objects, relations=relations, seed=int(obj["seed"]))


def save_scenes(path: str | Path, scenes: list[Scene]) -> None:
    with open(path, "w") as fh:
        for s in scenes:
            fh.write(json.dumps(scene_to_json(s)) + "\n")


def load_scenes(path: str | Path) -> list[Scene]:
    """One scene per non-blank line; a malformed line raises
    ``ShapeError``."""
    return [scene_from_json(obj, where) for where, obj in read_jsonl(path)]
