"""Synthetic world tests: scene generation, feature determinism, the
render/parse round trip, and triplet assembly."""

import numpy as np
import pytest

from graphcap.errors import InvalidGraphError
from graphcap.graph import NodeRole, sample_subgraph, validate_asg
from graphcap.metrics import parse_caption_tuples
from graphcap.worldgen import (
    Scene,
    SceneObject,
    WorldConfig,
    features_for,
    full_scene_graph,
    gen_dataset,
    gen_scene,
    make_triplet,
    scene_features,
    scene_from_json,
    scene_to_json,
    single_object_graph,
)

CFG = WorldConfig(dim=16)
GRAMMAR = CFG.grammar()


class TestGenScene:
    def test_deterministic(self):
        a = gen_scene(CFG, np.random.default_rng(5))
        b = gen_scene(CFG, np.random.default_rng(5))
        assert a == b

    def test_counts_and_boxes(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            s = gen_scene(CFG, rng)
            assert CFG.min_objects <= len(s.objects) <= CFG.max_objects
            assert 1 <= len(s.relations) <= 4
            for o in s.objects:
                x, y, w, h = o.box
                assert w > 0 and h > 0
                assert 0 <= x and x + w <= 1 and 0 <= y and y + h <= 1
                assert list(o.attrs) == sorted(set(o.attrs))
            for subj, cls, obj in s.relations:
                assert subj != obj

    def test_object_count_histogram_covers_range(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(10_000):
            seen.add(len(gen_scene(CFG, rng).objects))
            if len(seen) == CFG.max_objects - CFG.min_objects + 1:
                break
        assert seen == set(range(CFG.min_objects, CFG.max_objects + 1))

    def test_spatial_relations_match_geometry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = gen_scene(CFG, rng)
            for subj, cls, obj in s.relations:
                ci, cj = s.objects[subj].center, s.objects[obj].center
                if cls == 0:  # left-of
                    assert ci[0] < cj[0]
                elif cls == 1:  # right-of
                    assert ci[0] > cj[0]
                elif cls == 2:  # above
                    assert ci[1] > cj[1]
                elif cls == 3:  # below
                    assert ci[1] < cj[1]


class TestFeatures:
    def test_zero_noise_is_prototype_sum(self):
        cfg = WorldConfig(dim=16, noise=0.0)
        scene = gen_scene(cfg, np.random.default_rng(3))
        obj_vecs, rel_vecs, _ = scene_features(scene, cfg)
        from graphcap.worldgen import _prototypes

        op, ap, rp = _prototypes(cfg)
        for i, obj in enumerate(scene.objects):
            want = op[obj.cls] + sum(ap[a] for a in obj.attrs)
            np.testing.assert_allclose(obj_vecs[i], want, atol=1e-14)

    def test_attribute_copies_object_bitwise(self):
        scene = gen_scene(CFG, np.random.default_rng(4))
        g = full_scene_graph(scene)
        feats = features_for(scene, g, CFG)
        for node in g.nodes:
            if node.role is NodeRole.ATTRIBUTE:
                assert np.array_equal(
                    feats.node_features[node.id], feats.node_features[node.region]
                ) or np.array_equal(
                    feats.node_features[node.id],
                    feats.node_features[[n.id for n in g.nodes if n.role is NodeRole.OBJECT and n.region == node.region][0]],
                )

    def test_deterministic_features(self):
        scene = gen_scene(CFG, np.random.default_rng(6))
        g = full_scene_graph(scene)
        a = features_for(scene, g, CFG)
        b = features_for(scene, g, CFG)
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.scene_feature, b.scene_feature)

    def test_same_class_similarity_beats_cross_class(self):
        cfg = WorldConfig(dim=64, noise=0.1, n_object_classes=8)
        rng = np.random.default_rng(7)
        from graphcap.worldgen import _prototypes

        op, ap, _ = _prototypes(cfg)
        hits = 0
        trials = 10_000
        noise_rng = np.random.default_rng(8)
        for _ in range(trials):
            cls = int(rng.integers(cfg.n_object_classes))
            other = int(rng.integers(cfg.n_object_classes))
            while other == cls:
                other = int(rng.integers(cfg.n_object_classes))
            a = op[cls] + cfg.noise * noise_rng.normal(size=cfg.dim)
            b = op[cls] + cfg.noise * noise_rng.normal(size=cfg.dim)
            c = op[other] + cfg.noise * noise_rng.normal(size=cfg.dim)

            def cos(u, v):
                return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))

            if cos(a, b) > cos(a, c):
                hits += 1
        assert hits / trials >= 0.99

    def test_prototypes_drawn_once_per_config_and_read_only(self):
        from graphcap.worldgen import _prototypes

        cfg = WorldConfig(dim=8, prototype_seed=5)
        tables = _prototypes(cfg)
        assert all(a is b for a, b in zip(tables, _prototypes(WorldConfig(dim=8, prototype_seed=5))))
        rng = np.random.default_rng(5)
        for table, n in zip(tables, (cfg.n_object_classes, cfg.n_attr_classes, cfg.n_rel_classes)):
            fresh = rng.normal(size=(n, cfg.dim))
            assert np.array_equal(table, fresh / np.linalg.norm(fresh, axis=1, keepdims=True))
            with pytest.raises(ValueError):
                table[0, 0] = 0.0


class TestRenderCaption:
    def scene_fixture(self):
        objects = (
            SceneObject(cls=0, attrs=(0,), box=(0.1, 0.1, 0.2, 0.2)),   # red ball
            SceneObject(cls=1, attrs=(1, 4), box=(0.6, 0.5, 0.2, 0.2)),  # blue big box
        )
        relations = ((0, 0, 1),)  # ball left-of box
        return Scene(objects=objects, relations=relations, seed=1)

    def test_existence_template(self):
        scene = self.scene_fixture()
        g = single_object_graph(scene, 0, 1)
        assert GRAMMAR.render_caption(scene, g) == ["there", "is", "a", "red", "ball"]

    def test_bare_relation_template(self):
        scene = self.scene_fixture()
        g = full_scene_graph(scene)
        sub = sample_subgraph(g, np.random.default_rng(0))
        # strip attributes for the bare form
        from graphcap.graph import Node, SceneGraph

        bare = SceneGraph(
            nodes=tuple(
                Node(id=i, role=r, region=reg)
                for i, (r, reg) in enumerate(
                    [(NodeRole.OBJECT, 0), (NodeRole.RELATIONSHIP, 0), (NodeRole.OBJECT, 1)]
                )
            ),
            edges=((0, 1), (1, 2)),
        )
        toks = GRAMMAR.render_caption(scene, bare)
        assert toks == ["the", "ball", "left-of", "the", "box"]

    def test_attribute_order_respected(self):
        scene = self.scene_fixture()
        g = single_object_graph(scene, 1, 2)
        assert GRAMMAR.render_caption(scene, g) == ["there", "is", "a", "blue", "big", "box"]

    def test_too_many_attributes_rejected(self):
        scene = self.scene_fixture()
        g = single_object_graph(scene, 0, 1)
        from graphcap.graph import Node, SceneGraph

        g2 = SceneGraph(
            nodes=g.nodes + (Node(id=2, role=NodeRole.ATTRIBUTE, region=0),),
            edges=g.edges + ((0, 2),),
        )
        with pytest.raises(InvalidGraphError):
            GRAMMAR.render_caption(scene, g2)

    def test_round_trip_random_graphs(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            scene = gen_scene(CFG, rng)
            g_full = full_scene_graph(scene)
            sub = sample_subgraph(g_full, rng)
            toks = GRAMMAR.render_caption(scene, sub)
            c = parse_caption_tuples(toks, GRAMMAR)
            assert c.n_objects == len(sub.nodes_with_role(NodeRole.OBJECT))
            assert c.n_attr_pairs == len(sub.nodes_with_role(NodeRole.ATTRIBUTE))
            assert c.n_rel_triples == len(sub.nodes_with_role(NodeRole.RELATIONSHIP))


class TestMakeTriplet:
    def test_deterministic(self):
        scene = gen_scene(CFG, np.random.default_rng(10))
        sub = sample_subgraph(full_scene_graph(scene), np.random.default_rng(11))
        a = make_triplet(scene, sub, CFG)
        b = make_triplet(scene, sub, CFG)
        assert np.array_equal(a[0].node_features, b[0].node_features)
        assert a[2] == b[2]

    def test_graph_carries_no_labels(self):
        scene = gen_scene(CFG, np.random.default_rng(12))
        sub = sample_subgraph(full_scene_graph(scene), np.random.default_rng(13))
        _, g, _ = make_triplet(scene, sub, CFG)
        for node in g.nodes:
            assert set(vars(node)) if hasattr(node, "__dict__") else True
            assert node.role in NodeRole
            assert isinstance(node.region, int)

    def test_counts_match_graph(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            scene = gen_scene(CFG, rng)
            sub = sample_subgraph(full_scene_graph(scene), rng)
            _, g, caption = make_triplet(scene, sub, CFG)
            c = parse_caption_tuples(caption, GRAMMAR)
            assert c.n_objects == len(g.nodes_with_role(NodeRole.OBJECT))
            assert c.n_attr_pairs == len(g.nodes_with_role(NodeRole.ATTRIBUTE))
            assert c.n_rel_triples == len(g.nodes_with_role(NodeRole.RELATIONSHIP))


class TestDataset:
    def test_gen_dataset_counts(self):
        scenes, rows = gen_dataset(CFG, 60, seed=1)
        assert len(rows) == 60
        assert all(0 <= r["scene_id"] < len(scenes) for r in rows)
        assert all(validate_asg(r["graph"]) == [] for r in rows)

    def test_scene_json_round_trip(self):
        scene = gen_scene(CFG, np.random.default_rng(15))
        assert scene_from_json(scene_to_json(scene)) == scene
