"""Harness tests: training determinism, checkpoint round trips and
rejection of bad checkpoints, the beam-width contract, the ablation
smoke matrix, and the command-line surface end to end."""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from graphcap import decoder, evaluation
from graphcap.errors import ShapeError
from graphcap.graph import asg_from_json, asg_to_json, sample_subgraph
from graphcap.model import CaptionModel
from graphcap.training import Checkpoint, Dataset, Instance, TrainConfig, train
from graphcap.worldgen import (
    WorldConfig,
    features_for,
    full_scene_graph,
    gen_dataset,
    scene_from_json,
    scene_to_json,
)


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


    def test_each_scene_is_one_packed_search(self, monkeypatch):
        ds = tiny_dataset(16)
        ckpt, _ = train(tiny_config(epochs=8, lr=1e-2), ds)  # trained enough to end captions early
        model = ckpt.model
        counts = {"prepare": 0, "step": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(model, "prepare", counting("prepare", model.prepare))
        monkeypatch.setattr(model, "step", counting("step", model.step))
        searches = []  # (requests, prepare calls, step calls) of each search
        original = decoder.beam_search

        def recording(m, requests, max_len, eos_id=None):
            counts.update(prepare=0, step=0)
            out = original(m, requests, max_len, eos_id)
            searches.append((list(requests), counts["prepare"], counts["step"]))
            return out

        monkeypatch.setattr(decoder, "beam_search", recording)
        scene_ids = sorted({inst.scene_id for inst in ds.instances})
        result = evaluation.evaluate_diversity(ckpt, ds, scene_ids, samples=5, seed=0)
        assert len(searches) == len(result.per_scene) == len(scene_ids) == 4

        max_len = ckpt.config.max_len
        step_counts = set()
        for row, (requests, prepares, steps) in zip(result.per_scene, searches):
            # the sampled graphs at width 1, then the first graph at widths 1..5
            assert [w for _, _, w in requests] == [1] * 5 + [1, 2, 3, 4, 5]
            assert prepares == len({(id(g), id(f)) for g, f, _ in requests}) <= 5
            solo_steps = []
            for g, f, w in requests:
                counts["step"] = 0
                original(model, [(g, f, w)], max_len, model.eos_id)
                solo_steps.append(counts["step"])
            assert steps == max(solo_steps)
            step_counts.update(solo_steps)
            solo = [model.caption_tokens(g, f, beam=w, max_len=max_len) for g, f, w in requests]
            assert row["captions"] + row["baseline_captions"] == solo
        assert len(step_counts) > 1  # searches of a pack end at different steps

    def eval_diversity_exits_2(self, saved, tmp_path, capsys, *flags):
        from graphcap.cli import main

        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(saved / "world.json"), "--out", str(data), "--count", "4"]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        code = main([
            "eval-diversity", "--ckpt", str(saved / "ckpt"), "--data", str(data), *flags, "--report", str(report),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not report.exists()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_exits_2(self, saved, tmp_path, capsys, samples):
        with pytest.raises(ShapeError):
            evaluation.evaluate_diversity(Checkpoint.load(saved / "ckpt"), tiny_dataset(6), [0], samples=samples)
        self.eval_diversity_exits_2(saved, tmp_path, capsys, "--samples", str(samples))

    @pytest.mark.parametrize("scenes", [0, -1])
    def test_no_scenes_exits_2(self, saved, tmp_path, capsys, scenes):
        with pytest.raises(ShapeError):
            evaluation.evaluate_diversity(Checkpoint.load(saved / "ckpt"), tiny_dataset(6), [], samples=5)
        self.eval_diversity_exits_2(saved, tmp_path, capsys, "--scenes", str(scenes))

    def test_distinct_subgraphs_draw_as_repeated_sample_subgraph(self):
        def repeated(g_full, samples, rng, tries=200):
            seen, attempts = {}, 0
            while len(seen) < samples and attempts < tries:
                sub = sample_subgraph(g_full, rng)
                key = (tuple(n.role.value for n in sub.nodes), sub.edges, tuple(n.region for n in sub.nodes))
                seen.setdefault(key, sub)
                attempts += 1
            out = list(seen.values())
            while len(out) < samples:
                out.append(sample_subgraph(g_full, rng))
            return out[:samples]

        ds = tiny_dataset(12)
        for scene in ds.scenes:
            g_full = full_scene_graph(scene)
            if not g_full.relationship_triples():
                continue
            for samples in (1, 5, 40):
                a, b = np.random.default_rng(scene.seed), np.random.default_rng(scene.seed)
                assert evaluation._distinct_subgraphs(g_full, samples, a) == repeated(g_full, samples, b)
                assert a.random() == b.random()


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
            beam=2 if bs else 1,
        )
        ckpt, curve = train(cfg, ds)
        assert len(curve) == 1 and np.isfinite(curve[0])
        inst = ds.instances[0]
        toks = ckpt.model.caption_tokens(inst.graph, ds.features(inst), beam=cfg.beam)
        assert isinstance(toks, list)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny checkpoint trained with beam=2, plus a scene, a control
    graph and the world config to caption it with."""
    root = tmp_path_factory.mktemp("saved")
    ds = tiny_dataset(6)
    ckpt, _ = train(tiny_config(), ds)
    ckpt.save(root / "ckpt")
    inst = ds.instances[0]
    (root / "scene.json").write_text(json.dumps(scene_to_json(ds.scenes[inst.scene_id])))
    (root / "asg.json").write_text(json.dumps(asg_to_json(inst.graph)))
    (root / "world.json").write_text(json.dumps(asdict(ds.world)))
    return root


def edited_checkpoint(saved, tmp_path, edits):
    """Copy the saved checkpoint and apply each file's edit, a function
    of the file's raw bytes."""
    ck = tmp_path / "ck"
    shutil.copytree(saved / "ckpt", ck)
    for name, edit in edits.items():
        path = ck / name
        path.write_bytes(edit(path.read_bytes()))
    return ck


def json_edit(edit):
    """A raw-bytes edit applying ``edit`` to the parsed JSON."""
    return lambda raw: json.dumps(edit(json.loads(raw))).encode()


def cut_short(raw):
    return raw[: len(raw) // 2]


def caption(saved, ckpt_dir, *extra):
    from graphcap.cli import main

    return main([
        "caption", "--ckpt", str(ckpt_dir), "--scene", str(saved / "scene.json"),
        "--asg", str(saved / "asg.json"), "--world", str(saved / "world.json"),
        *map(str, extra),
    ])


def legacy_greedy(config):
    """A train_config.json from before ``beam`` was the only decode-width
    switch, written by ``train --greedy``."""
    return {**config, "use_beam_search": False}


@pytest.fixture
def decode_widths(monkeypatch):
    """Records the beam width of every CaptionModel.decode call."""
    widths = []
    original = CaptionModel.decode

    def recording(self, g, feats, beam=5, max_len=20):
        widths.append(beam)
        return original(self, g, feats, beam=beam, max_len=max_len)

    monkeypatch.setattr(CaptionModel, "decode", recording)
    return widths


class TestBeamWidth:
    def test_beam_one_checkpoint_evaluates_greedily(self, decode_widths):
        from graphcap.evaluation import evaluate_control

        ds = tiny_dataset(6)
        ckpt, _ = train(tiny_config(beam=1), ds)
        evaluate_control(ckpt, ds)
        assert decode_widths == [1] * len(ds.instances)

    @pytest.mark.parametrize(
        "legacy,flags,width",
        [(False, (), 2), (True, (), 1), (True, ("--beam", 3), 3)],
        ids=["checkpoint-width", "legacy-greedy", "explicit-beam-wins"],
    )
    def test_caption_width(self, saved, tmp_path, decode_widths, legacy, flags, width):
        ck = edited_checkpoint(saved, tmp_path, {"train_config.json": json_edit(legacy_greedy)} if legacy else {})
        assert caption(saved, ck, *flags) == 0
        assert decode_widths == [width]

    def test_legacy_use_beam_search_false_loads_as_greedy(self, saved, tmp_path):
        ck = edited_checkpoint(saved, tmp_path, {"train_config.json": json_edit(legacy_greedy)})
        assert Checkpoint.load(ck).config.beam == 1
        assert TrainConfig.from_json({"use_beam_search": True, "beam": 4}).beam == 4


class TestBadCheckpoint:
    @pytest.mark.parametrize(
        "edits",
        [
            {"weights.bin": lambda raw: raw[:-8]},
            # an extra tensor, with weights.bin holding its values
            {
                "manifest.json": json_edit(lambda m: m + [{"name": "decoder.extra", "shape": [2]}]),
                "weights.bin": lambda raw: raw + bytes(16),
            },
            {"train_config.json": json_edit(lambda config: {**config, "no_such_key": 1})},
            {"train_config.json": cut_short},
            {"manifest.json": cut_short},
            {"world.json": cut_short},
            {"world.json": json_edit(lambda world: {**world, "noise": -1.0})},
        ],
        ids=[
            "truncated-weights", "extra-tensor", "unknown-config-key",
            "cut-short-train-config", "cut-short-manifest",
            "cut-short-world", "bad-world-value",
        ],
    )
    def test_load_raises_shape_error_and_caption_exits_2(self, saved, tmp_path, capsys, edits):
        ck = edited_checkpoint(saved, tmp_path, edits)
        with pytest.raises(ShapeError):
            Checkpoint.load(ck)
        capsys.readouterr()
        assert caption(saved, ck) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestWorldInCheckpoint:
    """A checkpoint keeps the world config of its training data, so the
    features it is fed are built as in training."""

    def test_save_load_keeps_world(self, saved):
        ckpt = Checkpoint.load(saved / "ckpt")
        assert ckpt.world == tiny_dataset(6).world
        assert ckpt.world != WorldConfig(dim=ckpt.config.dim)

    def test_checkpoint_without_world_loads(self, saved, tmp_path):
        ck = tmp_path / "ck"
        shutil.copytree(saved / "ckpt", ck)
        (ck / "world.json").unlink()
        assert Checkpoint.load(ck).world is None

    def test_caption_defaults_to_checkpoint_world(self, saved, monkeypatch):
        from graphcap import cli

        worlds = []

        def recording(scene, graph, world):
            worlds.append(world)
            return features_for(scene, graph, world)

        monkeypatch.setattr(cli, "features_for", recording)
        assert cli.main([
            "caption", "--ckpt", str(saved / "ckpt"), "--scene", str(saved / "scene.json"),
            "--asg", str(saved / "asg.json"),
        ]) == 0
        assert worlds == [tiny_dataset(6).world]

    def test_caption_with_another_world_exits_2(self, saved, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        (other / "world.json").write_text(json.dumps({**asdict(tiny_dataset(6).world), "noise": 0.3}))
        from graphcap.cli import main

        code = main([
            "caption", "--ckpt", str(saved / "ckpt"), "--scene", str(saved / "scene.json"),
            "--asg", str(saved / "asg.json"), "--world", str(other / "world.json"),
        ])
        assert code == 2
        assert "differs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval-control", "eval-diversity"])
    def test_eval_on_data_of_another_world_exits_2(self, saved, tmp_path, capsys, command):
        from graphcap.cli import main

        (tmp_path / "w.json").write_text(json.dumps({**asdict(tiny_dataset(6).world), "prototype_seed": 8}))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(tmp_path / "w.json"), "--out", str(data), "--count", "4"]) == 0
        capsys.readouterr()
        code = main([command, "--ckpt", str(saved / "ckpt"), "--data", str(data), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "differs" in capsys.readouterr().err


class TestBadWorldConfig:
    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 12, "bogus": 1}',
            '{"dim": 12, "noise": -1}',
            '{"dim": 12',
            '{"max_attrs_per_object": -1}',
            '{"max_attrs_per_object": 9}',
            '{"n_object_classes": 99}',
            '{"n_attr_classes": 13}',
            '{"n_rel_classes": 9}',
            '{"dim": 0}',
            '{"dim": 6, "prototype_seed": -1}',
        ],
        ids=[
            "unknown-key", "bad-value", "malformed-json", "negative-attrs", "too-many-attrs",
            "too-many-object-classes", "too-many-attr-classes", "too-many-rel-classes", "zero-dim",
            "negative-prototype-seed",
        ],
    )
    def test_gen_data_exits_2(self, tmp_path, capsys, text):
        from graphcap.cli import main

        (tmp_path / "w.json").write_text(text)
        assert main(["gen-data", "--config", str(tmp_path / "w.json"), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


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
        best = ckpt.model.decode(graph, feats, beam=2, max_len=ckpt.config.max_len)[0]
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
        assert self.run_cli("gradcheck", "--dim", 0) == 2

    def test_console_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "graphcap.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        for sub in ("gen-data", "train", "caption", "eval-control", "eval-diversity", "sample-asg", "gradcheck"):
            assert sub in out.stdout
