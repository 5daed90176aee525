"""Scene graph data model and its two derived structures.

A :class:`SceneGraph` is the control signal: a directed graph of
unlabeled nodes in three roles (object / attribute / relationship), each
grounded in a scene region.  Structural rules:

* an attribute node has exactly one incoming edge, from an object, and
  no outgoing edges;
* a relationship node has exactly one incoming edge from an object (the
  subject) and exactly one outgoing edge to an object;
* edges only ever follow the patterns object->attribute,
  object->relationship, relationship->object;
* node ids are dense 0..n-1.

Two derived views feed the model.  :class:`MultiRelGraph` splits the
edges into six typed relations (three forward kinds and their exact
transposes) for the relational encoder.  :class:`FlowGraph` adds a start
slot, makes object<->attribute connections bidirectional, gives sinks a
self-loop, and carries the in-degree-normalized transition matrix used
by the flow attention.

All structures are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InvalidGraphError, NoRelationshipsError, ShapeError
from .jsonio import decoding, read_json

__all__ = [
    "NodeRole",
    "Node",
    "SceneGraph",
    "MultiRelGraph",
    "FlowGraph",
    "RELATION_KINDS",
    "validate_asg",
    "build_multirel",
    "build_flow",
    "flow_step",
    "sample_subgraph",
    "subgraph_sampler",
    "asg_to_json",
    "asg_from_json",
]


class NodeRole(Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"
    RELATIONSHIP = "relationship"


@dataclass(frozen=True)
class Node:
    id: int
    role: NodeRole
    region: int


@dataclass(frozen=True)
class SceneGraph:
    """Directed role-typed graph; ``attribute_order`` maps each object id
    to its attribute node ids in insertion order (drives both positional
    embeddings and caption rendering)."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]
    attribute_order: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.attribute_order:
            object.__setattr__(self, "attribute_order", _derive_attribute_order(self))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def nodes_with_role(self, role: NodeRole) -> list[int]:
        return [n.id for n in self.nodes if n.role is role]

    def attr_position(self, nid: int) -> int:
        """Position of an attribute node within its object's ordered list."""
        for order in self.attribute_order.values():
            if nid in order:
                return order.index(nid)
        raise InvalidGraphError(f"node {nid} is not a tracked attribute")

    def relationship_triples(self) -> list[tuple[int, int, int]]:
        """(subject, relationship, object) node-id triples."""
        into = {}
        outof = {}
        for s, d in self.edges:
            if self.nodes[d].role is NodeRole.RELATIONSHIP:
                into[d] = s
            if self.nodes[s].role is NodeRole.RELATIONSHIP:
                outof[s] = d
        out = []
        for r in self.nodes_with_role(NodeRole.RELATIONSHIP):
            if r in into and r in outof:
                out.append((into[r], r, outof[r]))
        return out


def _derive_attribute_order(g: SceneGraph) -> dict[int, tuple[int, ...]]:
    order: dict[int, list[int]] = {}
    for s, d in g.edges:
        if (
            0 <= s < len(g.nodes)
            and 0 <= d < len(g.nodes)
            and g.nodes[s].role is NodeRole.OBJECT
            and g.nodes[d].role is NodeRole.ATTRIBUTE
        ):
            order.setdefault(s, []).append(d)
    return {o: tuple(sorted(a)) for o, a in order.items()}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_asg(g: SceneGraph) -> list[str]:
    """Return all structural violations (empty list means valid).

    Violations are data, not exceptions: callers decide whether to
    reject, report, or repair.
    """
    violations: list[str] = []
    n = len(g.nodes)
    for i, node in enumerate(g.nodes):
        if node.id != i:
            violations.append(f"node ids not dense: position {i} holds id {node.id}")
    for s, d in g.edges:
        if not (0 <= s < n) or not (0 <= d < n):
            violations.append(f"edge ({s},{d}) references missing node")
    if violations:
        return violations

    indeg: dict[int, list[int]] = {i: [] for i in range(n)}
    outdeg: dict[int, list[int]] = {i: [] for i in range(n)}
    for s, d in g.edges:
        indeg[d].append(s)
        outdeg[s].append(d)

    for node in g.nodes:
        ins, outs = indeg[node.id], outdeg[node.id]
        if node.role is NodeRole.ATTRIBUTE:
            if len(ins) != 1:
                violations.append(f"attribute {node.id} has {len(ins)} incoming edges, wants 1")
            elif g.nodes[ins[0]].role is not NodeRole.OBJECT:
                violations.append(f"attribute {node.id} incoming edge not from an object")
            if outs:
                violations.append(f"attribute {node.id} has outgoing edges")
        elif node.role is NodeRole.RELATIONSHIP:
            if len(ins) != 1:
                violations.append(
                    f"relationship {node.id} has {len(ins)} incoming edges, wants 1"
                )
            elif g.nodes[ins[0]].role is not NodeRole.OBJECT:
                violations.append(f"relationship {node.id} subject is not an object")
            if len(outs) != 1:
                violations.append(
                    f"relationship {node.id} has {len(outs)} outgoing edges, wants 1"
                )
            elif g.nodes[outs[0]].role is not NodeRole.OBJECT:
                violations.append(f"relationship {node.id} object end is not an object")
        else:
            if node.region < 0:
                violations.append(f"object {node.id} is not grounded in a region")
            for d in outs:
                if g.nodes[d].role is NodeRole.OBJECT:
                    violations.append(f"edge ({node.id},{d}) connects object to object")
    return violations


def _require_valid(g: SceneGraph) -> None:
    violations = validate_asg(g)
    if violations:
        raise InvalidGraphError("; ".join(violations))


# ---------------------------------------------------------------------------
# multi-relational view
# ---------------------------------------------------------------------------

RELATION_KINDS = (
    "obj_to_attr",
    "attr_to_obj",
    "subj_to_rel",
    "rel_to_subj",
    "rel_to_obj",
    "obj_to_rel",
)


@dataclass(frozen=True)
class MultiRelGraph:
    """Six typed edge lists; each inverse kind is the exact transpose of
    its forward kind.  ``obj_to_rel`` is the inverse of ``rel_to_obj``
    (the object end pointing back into the relationship)."""

    n_nodes: int
    relations: dict[str, tuple[tuple[int, int], ...]]


def build_multirel(g: SceneGraph) -> MultiRelGraph:
    _require_valid(g)
    rel: dict[str, list[tuple[int, int]]] = {k: [] for k in RELATION_KINDS}
    for s, d in g.edges:
        rs, rd = g.nodes[s].role, g.nodes[d].role
        if rs is NodeRole.OBJECT and rd is NodeRole.ATTRIBUTE:
            rel["obj_to_attr"].append((s, d))
            rel["attr_to_obj"].append((d, s))
        elif rs is NodeRole.OBJECT and rd is NodeRole.RELATIONSHIP:
            rel["subj_to_rel"].append((s, d))
            rel["rel_to_subj"].append((d, s))
        elif rs is NodeRole.RELATIONSHIP and rd is NodeRole.OBJECT:
            rel["rel_to_obj"].append((s, d))
            rel["obj_to_rel"].append((d, s))
    return MultiRelGraph(
        n_nodes=len(g.nodes), relations={k: tuple(v) for k, v in rel.items()}
    )


# ---------------------------------------------------------------------------
# flow graph
# ---------------------------------------------------------------------------

START_SLOT = 0


@dataclass(frozen=True)
class FlowGraph:
    """Transition structure over ``n_nodes + 1`` slots; slot 0 is the
    start symbol and graph node ``v`` occupies slot ``v + 1``.

    ``matrix[i, j] = 1/indeg(i)`` when edge j->i exists, so applying the
    matrix to an attention vector moves mass one step along the flow.
    """

    n_slots: int
    edges: tuple[tuple[int, int], ...]  # in slot coordinates
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_flow(g: SceneGraph) -> FlowGraph:
    """Derive the decoding-order graph.

    Construction order matters: the start slot attaches to objects with
    zero in-degree *in the original edge set* (descriptions begin at
    subjects); reverse attribute edges and sink self-loops are added
    afterwards so they never mask a source object.
    """
    _require_valid(g)
    n = len(g.nodes)

    def slot(v: int) -> int:
        return v + 1

    edges: set[tuple[int, int]] = {(slot(s), slot(d)) for s, d in g.edges}

    indeg0 = {i: 0 for i in range(n)}
    for _, d in g.edges:
        indeg0[d] += 1
    objects = g.nodes_with_role(NodeRole.OBJECT)
    sources = [o for o in objects if indeg0[o] == 0]
    if not sources and objects:
        sources = [min(objects)]
    for o in sources:
        edges.add((START_SLOT, slot(o)))

    for s, d in g.edges:
        if g.nodes[s].role is NodeRole.OBJECT and g.nodes[d].role is NodeRole.ATTRIBUTE:
            edges.add((slot(d), slot(s)))

    out_counts = {i: 0 for i in range(n + 1)}
    for s, _ in edges:
        out_counts[s] += 1
    for v in range(n):
        if out_counts[slot(v)] == 0:
            edges.add((slot(v), slot(v)))

    matrix = np.zeros((n + 1, n + 1), dtype=np.float64)
    indeg = {i: 0 for i in range(n + 1)}
    for _, d in edges:
        indeg[d] += 1
    for s, d in edges:
        matrix[d, s] = 1.0 / indeg[d]
    return FlowGraph(n_slots=n + 1, edges=tuple(sorted(edges)), matrix=matrix)


def flow_step(fg: FlowGraph, alpha: np.ndarray, k: int) -> np.ndarray:
    """Transport an attention distribution 0, 1, or 2 steps along the flow.

    The result is renormalized to a distribution; if the transported
    mass vanishes (below 1e-12) the input is returned unchanged so the
    attention never collapses.

    Transition weights 1/indeg are not float-representable in general,
    so the transport is evaluated in exact rational arithmetic and
    rounded once at the end; the result is therefore independent of
    accumulation order and matches path enumeration exactly.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (fg.n_slots,):
        raise ShapeError(f"alpha shape {alpha.shape} != ({fg.n_slots},)")
    if alpha.min() < -1e-12 or abs(alpha.sum() - 1.0) > 1e-9:
        raise ShapeError("alpha is not a distribution")
    if k not in (0, 1, 2):
        raise ShapeError(f"k must be 0, 1, or 2, got {k}")
    if k == 0:
        return alpha.copy()

    n = fg.n_slots
    indeg = [0] * n
    for _, d in fg.edges:
        indeg[d] += 1
    out_lists: dict[int, list[tuple[int, Fraction]]] = {}
    for s, d in fg.edges:
        out_lists.setdefault(s, []).append((d, Fraction(1, indeg[d])))

    mass = [Fraction(a) for a in alpha]
    for _ in range(k):
        nxt = [Fraction(0)] * n
        for j, mj in enumerate(mass):
            if mj == 0:
                continue
            for d, w in out_lists.get(j, ()):
                nxt[d] += mj * w
        mass = nxt
    total = sum(mass)
    if total < Fraction(1, 10**12):
        return alpha.copy()
    return np.array([float(m / total) for m in mass], dtype=np.float64)


# ---------------------------------------------------------------------------
# subgraph sampling
# ---------------------------------------------------------------------------


def sample_subgraph(g_full: SceneGraph, rng: np.random.Generator) -> SceneGraph:
    """Extract one subject-relationship-object triple, optionally with
    one attribute on each endpoint (probability 1/2 where the endpoint
    has attributes in the source graph).  Region groundings carry over.
    """
    return subgraph_sampler(g_full)(rng)


def subgraph_sampler(g_full: SceneGraph) -> Callable[[np.random.Generator], SceneGraph]:
    """``sample_subgraph`` of ``g_full`` as a function of the generator:
    the graph is validated and its triples found once, not per draw.
    Each draw takes the same random numbers and gives the same subgraph
    as ``sample_subgraph(g_full, rng)``."""
    _require_valid(g_full)
    triples = g_full.relationship_triples()
    if not triples:
        raise NoRelationshipsError("source graph has no relationship nodes")
    return partial(_draw_subgraph, g_full, triples)


def _draw_subgraph(g_full: SceneGraph, triples, rng: np.random.Generator) -> SceneGraph:
    subj, rel, obj = triples[rng.integers(len(triples))]

    nodes: list[Node] = []
    edges: list[tuple[int, int]] = []
    mapping: dict[int, int] = {}

    def add(src_id: int, role: NodeRole) -> int:
        nid = len(nodes)
        nodes.append(Node(id=nid, role=role, region=g_full.nodes[src_id].region))
        mapping[src_id] = nid
        return nid

    s = add(subj, NodeRole.OBJECT)
    r = add(rel, NodeRole.RELATIONSHIP)
    o = add(obj, NodeRole.OBJECT) if obj != subj else s
    edges.append((s, r))
    edges.append((r, o))

    order: dict[int, tuple[int, ...]] = {}
    endpoints = [(subj, s)] if obj == subj else [(subj, s), (obj, o)]
    for src, local in endpoints:
        available = g_full.attribute_order.get(src, ())
        if available and rng.random() < 0.5:
            src_attr = available[rng.integers(len(available))]
            a = add(src_attr, NodeRole.ATTRIBUTE)
            edges.append((local, a))
            order[local] = (a,)

    return SceneGraph(nodes=tuple(nodes), edges=tuple(edges), attribute_order=order)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def asg_to_json(g: SceneGraph) -> dict:
    return {
        "nodes": [
            {"id": n.id, "role": n.role.value, "region": n.region} for n in g.nodes
        ],
        "edges": [[s, d] for s, d in g.edges],
    }


def asg_from_json(obj: dict | str | Path) -> SceneGraph:
    """A graph from its JSON object or file; a missing key or a value of
    the wrong type raises ``ShapeError``.  The result is not validated
    (see :func:`validate_asg`)."""
    what = "control graph"
    if isinstance(obj, (str, Path)):
        what, obj = obj, read_json(obj)
    with decoding(what):
        nodes = tuple(
            Node(id=int(n["id"]), role=NodeRole(n["role"]), region=int(n.get("region", -1)))
            for n in sorted(obj["nodes"], key=lambda n: n["id"])
        )
        edges = tuple((int(s), int(d)) for s, d in obj["edges"])
        return SceneGraph(nodes=nodes, edges=edges)
