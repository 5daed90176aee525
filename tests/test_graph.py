"""Scene-graph structure tests: validation, the six-relation view, flow
graph construction, flow transitions vs a path-enumeration oracle, and
subgraph sampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcap import graph as graph_module
from graphcap.errors import InvalidGraphError, NoRelationshipsError, ShapeError
from graphcap.graph import (
    FlowGraph,
    Node,
    NodeRole,
    SceneGraph,
    asg_from_json,
    asg_to_json,
    build_flow,
    build_multirel,
    flow_step,
    sample_subgraph,
    subgraph_sampler,
    validate_asg,
)

O, A, R = NodeRole.OBJECT, NodeRole.ATTRIBUTE, NodeRole.RELATIONSHIP


def make_graph(roles, edges, regions=None):
    regions = regions if regions is not None else [0] * len(roles)
    nodes = tuple(Node(id=i, role=r, region=g) for i, (r, g) in enumerate(zip(roles, regions)))
    return SceneGraph(nodes=nodes, edges=tuple(edges))


def chain_graph():
    """o0 with attribute a1, related via r2 to o3."""
    return make_graph([O, A, R, O], [(0, 1), (0, 2), (2, 3)])


# ---------------------------------------------------------------------------
# oracle: exact-rational path enumeration over the flow graph
# ---------------------------------------------------------------------------


def flow_step_oracle(fg: FlowGraph, alpha, k: int):
    """Walk all length-k edge paths with Fraction weights, then normalize
    exactly.  Independent of the matrix-power implementation."""
    n = fg.n_slots
    indeg = [0] * n
    for _, d in fg.edges:
        indeg[d] += 1
    weight = {(s, d): Fraction(1, indeg[d]) for s, d in fg.edges}
    alpha_f = [Fraction(a) for a in np.asarray(alpha, dtype=np.float64)]
    if k == 0:
        mass = [alpha_f[i] for i in range(n)]
    else:
        mass = [Fraction(0)] * n
        for j in range(n):
            if alpha_f[j] == 0:
                continue
            if k == 1:
                for (s, d), w in weight.items():
                    if s == j:
                        mass[d] += alpha_f[j] * w
            else:
                for (s1, m1), w1 in weight.items():
                    if s1 != j:
                        continue
                    for (s2, d2), w2 in weight.items():
                        if s2 == m1:
                            mass[d2] += alpha_f[j] * w1 * w2
    total = sum(mass)
    if total < Fraction(1, 10**12):
        return np.asarray(alpha, dtype=np.float64).copy()
    return np.array([float(m / total) for m in mass])


def enumerate_valid_graphs(max_nodes: int):
    """All role patterns of valid graphs with <= max_nodes nodes:
    objects first, then every attachment of attributes to objects and
    every assignment of relationships to ordered object pairs."""
    graphs = []
    for n in range(1, max_nodes + 1):
        for n_obj in range(1, n + 1):
            for n_attr in range(0, n - n_obj + 1):
                n_rel = n - n_obj - n_attr
                pairs = [(i, j) for i in range(n_obj) for j in range(n_obj) if i != j]
                if n_rel > 0 and not pairs:
                    continue
                for attr_assign in _assignments(n_attr, n_obj):
                    for rel_assign in _assignments(n_rel, len(pairs)):
                        roles = [O] * n_obj + [A] * n_attr + [R] * n_rel
                        edges = []
                        for a_i, owner in enumerate(attr_assign):
                            edges.append((owner, n_obj + a_i))
                        for r_i, pidx in enumerate(rel_assign):
                            s, d = pairs[pidx]
                            rnode = n_obj + n_attr + r_i
                            edges.append((s, rnode))
                            edges.append((rnode, d))
                        graphs.append(make_graph(roles, edges))
    return graphs


def _assignments(k: int, n_choices: int):
    if k == 0:
        return [()]
    out = []
    stack = [()]
    for _ in range(k):
        nxt = []
        for prefix in stack:
            for c in range(n_choices):
                nxt.append(prefix + (c,))
        stack = nxt
    return stack


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_single_object_ok(self):
        assert validate_asg(make_graph([O], [])) == []

    def test_chain_ok(self):
        assert validate_asg(chain_graph()) == []

    def test_attribute_with_two_incoming(self):
        g = make_graph([O, O, A], [(0, 2), (1, 2)])
        assert any("attribute 2" in v for v in validate_asg(g))

    def test_relationship_missing_outgoing(self):
        g = make_graph([O, R], [(0, 1)])
        assert any("relationship 1" in v for v in validate_asg(g))

    def test_object_to_object_edge(self):
        g = make_graph([O, O], [(0, 1)])
        assert validate_asg(g)

    def test_ungrounded_object(self):
        g = make_graph([O], [], regions=[-1])
        assert any("not grounded" in v for v in validate_asg(g))


class TestMultiRel:
    def test_single_attribute_edge(self):
        g = make_graph([O, A], [(0, 1)])
        mrg = build_multirel(g)
        assert mrg.relations["obj_to_attr"] == ((0, 1),)
        assert mrg.relations["attr_to_obj"] == ((1, 0),)
        for kind in ("subj_to_rel", "rel_to_subj", "rel_to_obj", "obj_to_rel"):
            assert mrg.relations[kind] == ()

    def test_relationship_relations(self):
        g = make_graph([O, R, O], [(0, 1), (1, 2)])
        mrg = build_multirel(g)
        assert mrg.relations["subj_to_rel"] == ((0, 1),)
        assert mrg.relations["rel_to_subj"] == ((1, 0),)
        assert mrg.relations["rel_to_obj"] == ((1, 2),)
        assert mrg.relations["obj_to_rel"] == ((2, 1),)

    def test_empty_edges(self):
        mrg = build_multirel(make_graph([O, O], []))
        assert all(v == () for v in mrg.relations.values())

    def test_invalid_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            build_multirel(make_graph([O, A], []))

    def test_forward_union_matches_asg_and_inverses_are_transposes(self):
        for g in enumerate_valid_graphs(5)[::7]:
            mrg = build_multirel(g)
            forward = (
                set(mrg.relations["obj_to_attr"])
                | set(mrg.relations["subj_to_rel"])
                | set(mrg.relations["rel_to_obj"])
            )
            assert forward == set(g.edges)
            for fwd, inv in (
                ("obj_to_attr", "attr_to_obj"),
                ("subj_to_rel", "rel_to_subj"),
                ("rel_to_obj", "obj_to_rel"),
            ):
                assert {(b, a) for a, b in mrg.relations[fwd]} == set(mrg.relations[inv])


class TestFlowGraph:
    def test_chain_matrix(self):
        fg = build_flow(chain_graph())
        # slots: 0=S, 1=o0, 2=a1, 3=r2, 4=o3
        assert fg.n_slots == 5
        expected = np.zeros((5, 5))
        expected[1, 0] = 0.5  # S -> o0
        expected[1, 2] = 0.5  # a1 -> o0 (reverse attribute edge)
        expected[2, 1] = 1.0  # o0 -> a1
        expected[3, 1] = 1.0  # o0 -> r2
        expected[4, 3] = 0.5  # r2 -> o3
        expected[4, 4] = 0.5  # o3 self-loop
        np.testing.assert_array_equal(fg.matrix, expected)

    def test_single_object(self):
        fg = build_flow(make_graph([O], []))
        expected = np.zeros((2, 2))
        expected[1, 0] = 0.5
        expected[1, 1] = 0.5
        np.testing.assert_array_equal(fg.matrix, expected)

    def test_two_disconnected_objects_both_sources(self):
        fg = build_flow(make_graph([O, O], []))
        assert (0, 1) in fg.edges and (0, 2) in fg.edges
        assert (1, 1) in fg.edges and (2, 2) in fg.edges

    def test_start_falls_back_to_lowest_object(self):
        # cycle: o0 -> r -> o1 -> r -> o0 leaves no zero-indegree object
        g = make_graph([O, O, R, R], [(0, 2), (2, 1), (1, 3), (3, 0)])
        fg = build_flow(g)
        assert (0, 1) in fg.edges
        assert (0, 2) not in fg.edges

    def test_rows_with_inedges_sum_to_one(self):
        for g in enumerate_valid_graphs(5)[::5]:
            fg = build_flow(g)
            sums = fg.matrix.sum(axis=1)
            for i in range(fg.n_slots):
                if any(d == i for _, d in fg.edges):
                    assert abs(sums[i] - 1.0) < 1e-12
                else:
                    assert sums[i] == 0.0

    def test_edge_recovery_round_trip(self):
        # dropping S edges, self-loops, and reverse attribute edges
        # reproduces the source edge set exactly
        for g in enumerate_valid_graphs(5)[::3]:
            fg = build_flow(g)
            attr_pairs = {
                (s, d)
                for s, d in g.edges
                if g.nodes[d].role is NodeRole.ATTRIBUTE
            }
            recovered = set()
            for s, d in fg.edges:
                if s == 0 or d == 0 or s == d:
                    continue
                src, dst = s - 1, d - 1
                if (dst, src) in attr_pairs:
                    continue  # reverse of an attribute edge
                recovered.add((src, dst))
            assert recovered == set(g.edges)

    def test_permutation_equivariance(self):
        g = chain_graph()
        fg = build_flow(g)
        perm = [2, 0, 3, 1]  # new id of old node i
        inv = {new: old for old, new in enumerate(perm)}
        roles = [g.nodes[inv[i]].role for i in range(4)]
        edges = [(perm[s], perm[d]) for s, d in g.edges]
        regions = [g.nodes[inv[i]].region for i in range(4)]
        fg2 = build_flow(make_graph(roles, edges, regions))
        slot_perm = [0] + [perm[i] + 1 for i in range(4)]
        for i in range(5):
            for j in range(5):
                assert fg2.matrix[slot_perm[i], slot_perm[j]] == fg.matrix[i, j]


class TestFlowStep:
    def test_k0_identity(self):
        fg = build_flow(chain_graph())
        alpha = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        np.testing.assert_array_equal(flow_step(fg, alpha, 0), alpha)

    def test_one_step_from_start(self):
        fg = build_flow(chain_graph())
        alpha = np.array([1.0, 0, 0, 0, 0])
        out = flow_step(fg, alpha, 1)
        np.testing.assert_allclose(out, [0, 1.0, 0, 0, 0], atol=1e-15)

    def test_two_steps_from_first_object(self):
        fg = build_flow(chain_graph())
        alpha = np.array([0, 1.0, 0, 0, 0])
        out = flow_step(fg, alpha, 2)
        np.testing.assert_allclose(out, [0, 0.5, 0, 0, 0.5], atol=1e-15)

    def test_malformed_alpha(self):
        fg = build_flow(chain_graph())
        with pytest.raises(ShapeError):
            flow_step(fg, np.array([0.7, 0, 0, 0, 0]), 1)
        with pytest.raises(ShapeError):
            flow_step(fg, np.ones(3) / 3, 1)

    def test_matches_path_enumeration_exhaustively(self):
        rng = np.random.default_rng(5)
        for g in enumerate_valid_graphs(4):
            fg = build_flow(g)
            alphas = [np.eye(fg.n_slots)[i] for i in range(fg.n_slots)]
            raw = rng.random(fg.n_slots)
            alphas.append(raw / raw.sum())
            for alpha in alphas:
                if abs(alpha.sum() - 1.0) > 1e-9:
                    continue
                for k in (1, 2):
                    got = flow_step(fg, alpha, k)
                    want = flow_step_oracle(fg, alpha, k)
                    assert np.max(np.abs(got - want)) < 1e-14

    def test_two_steps_equals_composed_single_steps_unnormalized(self):
        for g in enumerate_valid_graphs(4)[::6]:
            fg = build_flow(g)
            alpha = np.zeros(fg.n_slots)
            alpha[1] = 1.0
            raw2 = fg.matrix @ (fg.matrix @ alpha)
            mass = raw2.sum()
            want = alpha if mass < 1e-12 else raw2 / mass
            got = flow_step(fg, alpha, 2)
            assert np.max(np.abs(got - want)) < 1e-12

    @given(st.integers(0, 2), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_is_distribution(self, k, seed):
        rng = np.random.default_rng(seed)
        graphs = enumerate_valid_graphs(4)
        g = graphs[int(rng.integers(len(graphs)))]
        fg = build_flow(g)
        raw = rng.random(fg.n_slots) + 1e-9
        alpha = raw / raw.sum()
        out = flow_step(fg, alpha, k)
        assert out.min() >= 0
        assert abs(out.sum() - 1.0) < 1e-9


class TestSampleSubgraph:
    def full_graph(self):
        # o0(a3,a4) -r5-> o1, o1 -r6-> o2(a7)
        return make_graph(
            [O, O, O, A, A, R, R, A],
            [(0, 3), (0, 4), (0, 5), (5, 1), (1, 6), (6, 2), (2, 7)],
            regions=[0, 1, 2, 0, 0, 0, 1, 2],
        )

    def test_single_triple_returned(self):
        g = make_graph([O, R, O], [(0, 1), (1, 2)])
        sub = sample_subgraph(g, np.random.default_rng(0))
        assert validate_asg(sub) == []
        assert len(sub.relationship_triples()) == 1
        assert len(sub.nodes_with_role(O)) == 2

    def test_deterministic_under_seed(self):
        g = self.full_graph()
        a = sample_subgraph(g, np.random.default_rng(42))
        b = sample_subgraph(g, np.random.default_rng(42))
        assert a == b

    def test_no_relationships_error(self):
        with pytest.raises(NoRelationshipsError):
            sample_subgraph(make_graph([O, A], [(0, 1)]), np.random.default_rng(0))

    def test_sampler_validates_once_and_draws_as_sample_subgraph(self, monkeypatch):
        g = self.full_graph()
        calls = []
        monkeypatch.setattr(graph_module, "validate_asg", lambda h: calls.append(h) or validate_asg(h))
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        draw = subgraph_sampler(g)
        got = [draw(a) for _ in range(100)]
        assert calls == [g]
        assert got == [sample_subgraph(g, b) for _ in range(100)]
        assert a.random() == b.random()

    def test_sampler_rejects_what_sample_subgraph_rejects(self):
        with pytest.raises(NoRelationshipsError):
            subgraph_sampler(make_graph([O, A], [(0, 1)]))
        with pytest.raises(InvalidGraphError):
            subgraph_sampler(make_graph([O, O], [(0, 1)]))

    def test_triple_frequency_uniform(self):
        g = self.full_graph()
        # add a third relation o2 -r8-> o0
        g2 = make_graph(
            [O, O, O, A, A, R, R, A, R],
            list(g.edges) + [(2, 8), (8, 0)],
            regions=[0, 1, 2, 0, 0, 0, 1, 2, 2],
        )
        rng = np.random.default_rng(9)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(1000):
            sub = sample_subgraph(g2, rng)
            subj_region = sub.nodes[0].region
            counts[subj_region] += 1
        for c in counts.values():
            assert abs(c / 1000 - 1 / 3) < 0.05

    def test_always_valid_with_bounded_attrs(self):
        g = self.full_graph()
        rng = np.random.default_rng(3)
        for _ in range(200):
            sub = sample_subgraph(g, rng)
            assert validate_asg(sub) == []
            assert len(sub.nodes_with_role(A)) <= 2
            assert len(sub.relationship_triples()) == 1


class TestJsonRoundTrip:
    def test_round_trip(self):
        g = chain_graph()
        obj = asg_to_json(g)
        assert obj["nodes"][1]["role"] == "attribute"
        g2 = asg_from_json(obj)
        assert g2.nodes == g.nodes
        assert g2.edges == g.edges
        assert g2.attribute_order == g.attribute_order
