"""Harness tests: training determinism, checkpoint round trips, the
ablation smoke matrix, and the command-line surface end to end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from graphcap.errors import ShapeError
from graphcap.graph import asg_from_json
from graphcap.training import Checkpoint, Dataset, Instance, TrainConfig, train
from graphcap.worldgen import WorldConfig, features_for, gen_dataset, scene_from_json


def tiny_dataset(n=12, dim=12, seed=0):
    world = WorldConfig(dim=dim, n_object_classes=3, n_attr_classes=3, n_rel_classes=3)
    scenes, rows = gen_dataset(world, n, seed=seed)
    vocab = world.grammar().build_vocab()
    return Dataset(
        world=world,
        scenes=scenes,
        instances=[Instance(r["scene_id"], r["graph"], r["caption"]) for r in rows],
        vocab=vocab,
    )


def tiny_config(**kw):
    base = dict(dim=12, n_layers=1, lr=3e-3, batch_size=6, epochs=1, seed=0, beam=2)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_empty_dataset_rejected(self):
        ds = tiny_dataset(4)
        ds.instances = []
        with pytest.raises(ShapeError):
            train(tiny_config(), ds)

    def test_zero_epochs_equals_initialization(self):
        ds = tiny_dataset(6)
        ckpt, curve = train(tiny_config(epochs=0), ds)
        from graphcap.model import CaptionModel

        fresh = CaptionModel(tiny_config(epochs=0).model_config(), ds.vocab, seed=0)
        for (na, a), (nb, b) in zip(ckpt.model.named_parameters(), fresh.named_parameters()):
            assert na == nb
            assert np.array_equal(a.data, b.data)
        assert curve == []

    def test_deterministic_given_seed(self):
        ds = tiny_dataset(8)
        c1, curve1 = train(tiny_config(epochs=2), ds)
        c2, curve2 = train(tiny_config(epochs=2), ds)
        assert curve1 == curve2
        for (_, a), (_, b) in zip(c1.model.named_parameters(), c2.model.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_loss_decreases(self):
        ds = tiny_dataset(10)
        _, curve = train(tiny_config(epochs=4), ds)
        assert curve[-1] < curve[0]

    def test_bad_config_rejected(self):
        with pytest.raises(ShapeError):
            tiny_config(use_content_attention=False, use_flow_attention=False)
        with pytest.raises(ShapeError):
            tiny_config(lr=0.0)


class TestCheckpoint:
    def test_save_load_decode_bit_identical(self, tmp_path):
        ds = tiny_dataset(8)
        ckpt, _ = train(tiny_config(epochs=1), ds)
        inst = ds.instances[0]
        feats = ds.features(inst)
        before = ckpt.model.caption_tokens(inst.graph, feats, beam=2)
        before_hyp = ckpt.model.decode(inst.graph, feats, beam=2)[0]

        ckpt.save(tmp_path / "ck")
        loaded = Checkpoint.load(tmp_path / "ck")
        after = loaded.model.caption_tokens(inst.graph, feats, beam=2)
        after_hyp = loaded.model.decode(inst.graph, feats, beam=2)[0]
        assert before == after
        assert before_hyp.score == after_hyp.score
        for (_, a), (_, b) in zip(ckpt.model.named_parameters(), loaded.model.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_loss_curve_side_file(self, tmp_path):
        ds = tiny_dataset(6)
        ckpt, curve = train(tiny_config(epochs=2), ds)
        ckpt.save(tmp_path / "ck")
        files = {p.name for p in (tmp_path / "ck").iterdir()}
        assert {"manifest.json", "weights.bin", "train_config.json", "vocab.json"} <= files


class TestDecodeDeterminism:
    def test_same_inputs_identical_caption(self):
        ds = tiny_dataset(8)
        ckpt, _ = train(tiny_config(epochs=1), ds)
        inst = ds.instances[0]
        feats = ds.features(inst)
        a = ckpt.model.caption_tokens(inst.graph, feats, beam=3)
        b = ckpt.model.caption_tokens(inst.graph, feats, beam=3)
        assert a == b


class TestDiversityEvaluation:
    def test_single_sample_reports_absent_selfcider(self):
        ds = tiny_dataset(8)
        ckpt, _ = train(tiny_config(epochs=1), ds)
        from graphcap.evaluation import evaluate_diversity

        scene_ids = sorted({inst.scene_id for inst in ds.instances})[:2]
        result = evaluate_diversity(ckpt, ds, scene_ids, samples=1, seed=0)
        assert result.self_cider is None
        assert result.div1 > 0

    def test_requested_sample_count_honored(self):
        ds = tiny_dataset(8)
        ckpt, _ = train(tiny_config(epochs=1), ds)
        from graphcap.evaluation import evaluate_diversity

        scene_ids = sorted({inst.scene_id for inst in ds.instances})[:2]
        result = evaluate_diversity(ckpt, ds, scene_ids, samples=5, seed=0)
        for row in result.per_scene:
            assert len(row["captions"]) == 5


class TestFullScaleConfig:
    def test_model_runs_at_reference_scale(self):
        # d=512, two conv layers: one forward pass must run
        from graphcap.encoder import FeatureBundle
        from graphcap.grammar import Vocab
        from graphcap.model import CaptionModel, ModelConfig
        from graphcap.graph import Node, NodeRole, SceneGraph

        vocab = Vocab.build(["x", "y"])
        model = CaptionModel(ModelConfig(dim=512, n_layers=2), vocab, seed=0)
        g = SceneGraph(
            nodes=(
                Node(0, NodeRole.OBJECT, 0),
                Node(1, NodeRole.RELATIONSHIP, 0),
                Node(2, NodeRole.OBJECT, 1),
            ),
            edges=((0, 1), (1, 2)),
        )
        rng = np.random.default_rng(0)
        feats = FeatureBundle(node_features=rng.normal(size=(3, 512)), scene_feature=rng.normal(size=512))
        loss, n = model.loss(g, feats, vocab.encode(["x", "y"]))
        assert np.isfinite(loss.item()) and n == 3


class TestAblationMatrix:
    @pytest.mark.parametrize(
        "role,rgcn,ctn,flow,gupdt,bs",
        [
            (False, False, True, False, False, False),
            (False, False, True, False, False, True),
            (True, False, True, False, False, False),
            (True, True, True, False, False, False),
            (True, True, True, True, False, False),
            (True, True, True, False, True, False),
            (True, True, True, True, True, False),
            (True, True, True, True, True, True),
            (True, True, False, True, True, True),
        ],
    )
    def test_every_row_trains_and_decodes(self, role, rgcn, ctn, flow, gupdt, bs):
        ds = tiny_dataset(6)
        cfg = tiny_config(
            use_role_embed=role,
            use_mrgcn=rgcn,
            use_content_attention=ctn,
            use_flow_attention=flow,
            use_graph_update=gupdt,
            use_beam_search=bs,
        )
        ckpt, curve = train(cfg, ds)
        assert len(curve) == 1 and np.isfinite(curve[0])
        inst = ds.instances[0]
        toks = ckpt.model.caption_tokens(
            inst.graph, ds.features(inst), beam=cfg.beam if bs else 1
        )
        assert isinstance(toks, list)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    world = {
        "n_object_classes": 3,
        "n_attr_classes": 3,
        "n_rel_classes": 3,
        "dim": 12,
        "noise": 0.1,
        "min_objects": 2,
        "max_objects": 4,
        "max_attrs_per_object": 2,
        "prototype_seed": 7,
    }
    with open(root / "world.json", "w") as fh:
        json.dump(world, fh)
    return root


class TestCli:
    def run_cli(self, *args):
        from graphcap.cli import main

        return main([str(a) for a in args])

    def test_full_pipeline(self, workspace):
        root = workspace
        assert self.run_cli(
            "gen-data", "--config", root / "world.json", "--out", root / "data",
            "--seed", 3, "--count", 16,
        ) == 0
        for name in ("scenes.jsonl", "triplets.jsonl", "vocab.json", "world.json"):
            assert (root / "data" / name).exists()

        assert self.run_cli(
            "train", "--data", root / "data", "--out", root / "ckpt",
            "--dim", 12, "--layers", 1, "--epochs", 1, "--batch", 8, "--lr", 3e-3,
        ) == 0
        assert (root / "ckpt" / "weights.bin").exists()

        # single-scene file + control graph for captioning
        with open(root / "data" / "scenes.jsonl") as fh:
            first_scene = fh.readline()
        (root / "scene0.json").write_text(first_scene)
        assert self.run_cli(
            "sample-asg", "--scene", root / "scene0.json", "--mode", "subgraph",
            "--seed", 5, "--out", root / "asg.json",
        ) == 0
        assert self.run_cli(
            "caption", "--ckpt", root / "ckpt", "--scene", root / "scene0.json",
            "--asg", root / "asg.json", "--beam", 2, "--trace", root / "trace.json",
            "--world", root / "data" / "world.json",
        ) == 0
        with open(root / "trace.json") as fh:
            trace = json.load(fh)
        assert trace and {"token", "alpha", "beta", "s", "sentinel"} <= set(trace[0])
        # one trace step per token of the best hypothesis, end token included
        ckpt = Checkpoint.load(root / "ckpt")
        with open(root / "data" / "world.json") as fh:
            world = WorldConfig.from_json(json.load(fh))
        graph = asg_from_json(root / "asg.json")
        feats = features_for(scene_from_json(json.loads(first_scene)), graph, world)
        beam = 2 if ckpt.config.use_beam_search else 1
        best = ckpt.model.decode(graph, feats, beam=beam, max_len=ckpt.config.max_len)[0]
        assert [st["token"] for st in trace] == [ckpt.model.token_text(t) for t in best.tokens]

        assert self.run_cli(
            "eval-control", "--ckpt", root / "ckpt", "--data", root / "data",
            "--report", root / "control.json",
        ) == 0
        with open(root / "control.json") as fh:
            report = json.load(fh)
        assert {"bleu4", "rouge_l", "cider_d", "G", "G_o", "G_a", "G_r"} <= set(report["report"])

        assert self.run_cli(
            "eval-diversity", "--ckpt", root / "ckpt", "--data", root / "data",
            "--samples", 3, "--scenes", 2, "--report", root / "div.json",
        ) == 0
        assert (root / "div.json").exists()

    def test_invalid_asg_exits_nonzero(self, workspace, tmp_path):
        root = workspace
        bad = {"nodes": [{"id": 0, "role": "attribute", "region": 0}], "edges": []}
        with open(tmp_path / "bad.json", "w") as fh:
            json.dump(bad, fh)
        with open(root / "data" / "scenes.jsonl") as fh:
            (tmp_path / "scene.json").write_text(fh.readline())
        rc = self.run_cli(
            "caption", "--ckpt", root / "ckpt", "--scene", tmp_path / "scene.json",
            "--asg", tmp_path / "bad.json",
        )
        assert rc != 0

    def test_gradcheck_command(self):
        assert self.run_cli("gradcheck", "--dim", 6, "--seed", 0) == 0

    def test_console_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "graphcap.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        for sub in ("gen-data", "train", "caption", "eval-control", "eval-diversity", "sample-asg", "gradcheck"):
            assert sub in out.stdout
