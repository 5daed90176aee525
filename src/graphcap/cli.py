"""Command-line interface.

Subcommands: gen-data, train, caption, eval-control, eval-diversity,
sample-asg, gradcheck.  Data directories hold scenes.jsonl,
triplets.jsonl, vocab.json and world.json; checkpoints are directories
with manifest.json, weights.bin, train_config.json, vocab.json and the
training data's world.json.  A command given a world config other than
its checkpoint's exits 2.  Any contract violation exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autoasg import auto_generate_asg, jitter_proposals, train_relation_classifier
from .errors import GraphCapError, ShapeError
from .evaluation import evaluate_control, evaluate_diversity
from .gradcheck import grad_check
from .grammar import Vocab
from .graph import asg_from_json, asg_to_json, sample_subgraph, validate_asg
from .model import CaptionModel, ModelConfig
from .jsonio import decoding, read_json, read_jsonl
from .training import Checkpoint, Dataset, Instance, TrainConfig, train
from .worldgen import (
    WorldConfig,
    features_for,
    full_scene_graph,
    gen_dataset,
    load_scenes,
    make_triplet,
    read_world,
    save_scenes,
    scene_from_json,
)


def _load_dataset(data_dir: str | Path) -> Dataset:
    data_dir = Path(data_dir)
    world = read_world(data_dir / "world.json")
    scenes = load_scenes(data_dir / "scenes.jsonl")
    vocab = Vocab.load(data_dir / "vocab.json")
    instances = []
    for where, row in read_jsonl(data_dir / "triplets.jsonl"):
        with decoding(where):
            scene_id, asg, caption = int(row["scene_id"]), row["asg"], row["caption"]
        if not 0 <= scene_id < len(scenes):
            raise ShapeError(f"{where}: scene {scene_id} is not in scenes.jsonl")
        if not isinstance(asg, dict):
            raise ShapeError(f"{where}: asg must be an object")
        if not (isinstance(caption, list) and all(isinstance(w, str) for w in caption)):
            raise ShapeError(f"{where}: caption must be a list of words")
        instances.append(Instance(scene_id=scene_id, graph=asg_from_json(asg), caption=caption))
    return Dataset(world=world, scenes=scenes, instances=instances, vocab=vocab)


def _load_scene_file(path: str | Path):
    return scene_from_json(read_json(path), path)


def cmd_gen_data(args) -> int:
    world = read_world(args.config) if args.config else WorldConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenes, rows = gen_dataset(world, args.count, seed=args.seed)
    save_scenes(out / "scenes.jsonl", scenes)
    with open(out / "triplets.jsonl", "w") as fh:
        for row in rows:
            fh.write(
                json.dumps(
                    {
                        "scene_id": row["scene_id"],
                        "asg": asg_to_json(row["graph"]),
                        "caption": row["caption"],
                    }
                )
                + "\n"
            )
    world.grammar().build_vocab().save(out / "vocab.json")
    with open(out / "world.json", "w") as fh:
        json.dump(asdict(world), fh, indent=1)
    print(f"wrote {len(scenes)} scenes, {len(rows)} triplets to {out}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    cfg = TrainConfig(
        dim=args.dim,
        n_layers=args.layers,
        lr=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        beam=args.beam,
        use_role_embed=not args.no_role,
        use_mrgcn=not args.no_rgcn,
        use_content_attention=not args.no_ctn,
        use_flow_attention=not args.no_flow,
        use_graph_update=not args.no_gupdt,
    )
    if dataset.world.dim != cfg.dim:
        print(f"error: data feature dim {dataset.world.dim} != model dim {cfg.dim}", file=sys.stderr)
        return 2
    ckpt, curve = train(cfg, dataset, log=print)
    ckpt.save(args.out)
    with open(Path(args.out) / "loss_curve.json", "w") as fh:
        json.dump(curve, fh)
    print(f"saved checkpoint to {args.out} (final loss {curve[-1]:.4f} nats/token)" if curve else "saved")
    return 0


def cmd_caption(args) -> int:
    ckpt = Checkpoint.load(args.ckpt)
    scene = _load_scene_file(args.scene)
    graph = asg_from_json(args.asg)
    violations = validate_asg(graph)
    if violations:
        print("invalid control graph:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 2
    if args.world:
        world = _checked_world(ckpt, read_world(args.world), args.world)
    else:
        world = ckpt.world or WorldConfig(dim=ckpt.config.dim)
    feats = features_for(scene, graph, world)
    beam = ckpt.config.beam if args.beam is None else args.beam
    hyps = ckpt.model.decode(graph, feats, beam=beam, max_len=ckpt.config.max_len)
    best = hyps[0]
    words = [ckpt.model.token_text(t) for t in best.tokens if t != ckpt.model.eos_id]
    print(" ".join(words))
    if args.trace:
        trace = _attention_trace(ckpt.model, graph, feats, best.tokens)
        with open(args.trace, "w") as fh:
            json.dump(trace, fh, indent=1)
        print(f"trace written to {args.trace}")
    return 0


def _checked_world(ckpt: Checkpoint, world: WorldConfig, source) -> WorldConfig:
    """``world``, unless the checkpoint records another world config."""
    if ckpt.world is not None and world != ckpt.world:
        raise ShapeError(f"the world config of {source} differs from the checkpoint's")
    return world


def _attention_trace(model: CaptionModel, graph, feats, tokens: list[int]) -> list[dict]:
    """Per-step attention of a decoded caption, recomputed by stepping
    the model's one row through its tokens again (decoding is
    deterministic)."""
    prepared = model.prepare(graph, feats)
    state = model.initial_state(prepared)
    trace = []
    for prev, tok in zip([model.bos_id] + tokens, tokens):
        state, modes, beta, sentinel = model._step(prepared, state, np.array([prev]))
        trace.append(
            {
                "token": model.token_text(tok),
                "alpha": state.alpha.data[0].tolist(),
                "beta": float(beta.data[0, 0]) if beta is not None else None,
                "s": modes.data[0].tolist() if modes is not None else None,
                "sentinel": float(sentinel.data[0, 0]) if sentinel is not None else 1.0,
            }
        )
    return trace


def cmd_eval_control(args) -> int:
    ckpt = Checkpoint.load(args.ckpt)
    dataset = _load_dataset(args.data)
    _checked_world(ckpt, dataset.world, args.data)
    result = evaluate_control(ckpt, dataset)
    result.save(args.report)
    r = result.report
    print(f"G={r.g:.3f} (o={r.g_o:.3f} a={r.g_a:.3f} r={r.g_r:.3f}) bleu4={r.bleu4:.3f} rougeL={r.rouge_l:.3f} ciderD={r.cider_d:.2f}")
    print(f"report written to {args.report}")
    return 0


def cmd_eval_diversity(args) -> int:
    ckpt = Checkpoint.load(args.ckpt)
    dataset = _load_dataset(args.data)
    _checked_world(ckpt, dataset.world, args.data)
    if args.scenes < 1:
        raise ShapeError(f"--scenes must be >= 1, got {args.scenes}")
    scene_ids = sorted({inst.scene_id for inst in dataset.instances})[: args.scenes]
    result = evaluate_diversity(ckpt, dataset, scene_ids, samples=args.samples, seed=args.seed)
    result.save(args.report)
    print(
        f"sampled-graphs div1={result.div1:.3f} div2={result.div2:.3f} selfcider={result.self_cider}"
    )
    print(
        f"single-graph baseline div1={result.baseline_div1:.3f} div2={result.baseline_div2:.3f} selfcider={result.baseline_self_cider}"
    )
    print(f"report written to {args.report}")
    return 0


def cmd_sample_asg(args) -> int:
    scene = _load_scene_file(args.scene)
    rng = np.random.default_rng(args.seed)
    if args.mode == "subgraph":
        graph = sample_subgraph(full_scene_graph(scene), rng)
    else:
        world = read_world(args.world) if args.world else WorldConfig()
        clf = train_relation_classifier(world, n_scenes=args.clf_scenes, seed=args.seed)
        proposals = jitter_proposals(scene, rng)
        graph = auto_generate_asg(scene, proposals, clf, world, threshold=args.threshold)
    payload = asg_to_json(graph)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"graph written to {args.out}")
    else:
        print(json.dumps(payload, indent=1))
    return 0


def cmd_gradcheck(args) -> int:
    from .worldgen import gen_scene

    model_cfg = ModelConfig(dim=args.dim)  # a bad --dim exits 2 here
    world = WorldConfig(
        dim=args.dim, n_object_classes=2, n_attr_classes=2, n_rel_classes=2
    )
    rng = np.random.default_rng(args.seed)
    scene = gen_scene(world, rng)
    g_full = full_scene_graph(scene)
    sub = sample_subgraph(g_full, rng)
    feats, graph, caption = make_triplet(scene, sub, world)
    vocab = world.grammar().build_vocab()
    model = CaptionModel(model_cfg, vocab, seed=args.seed)
    ids = vocab.encode(caption)
    params = model.parameters()
    err = grad_check(lambda: model.loss(graph, feats, ids)[0], params, eps=args.eps)
    print(f"max relative gradient error: {err:.3e} over {sum(p.size for p in params)} coordinates")
    if err >= 1e-4:
        print("FAIL: exceeds 1e-4", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="graphcap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--config", help="world config JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=2000, help="number of triplets")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a caption model")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--batch", type=int, default=32)
    t.add_argument("--dim", type=int, default=64)
    t.add_argument("--layers", type=int, default=2)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--beam", type=int, default=5, help="decode width at eval time (1 is greedy)")
    t.add_argument("--no-role", action="store_true", help="disable role embedding")
    t.add_argument("--no-rgcn", action="store_true", help="disable graph convolution")
    t.add_argument("--no-ctn", action="store_true", help="disable content attention")
    t.add_argument("--no-flow", action="store_true", help="disable flow attention")
    t.add_argument("--no-gupdt", action="store_true", help="disable graph updating")
    t.set_defaults(fn=cmd_train)

    c = sub.add_parser("caption", help="caption one scene with a control graph")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--scene", required=True, help="scene JSON file")
    c.add_argument("--asg", required=True, help="control graph JSON file")
    c.add_argument("--beam", type=int, help="beam width (defaults to the checkpoint's)")
    c.add_argument("--trace", help="write per-step attention trace JSON here")
    c.add_argument("--world", help="world config JSON (defaults to the checkpoint's)")
    c.set_defaults(fn=cmd_caption)

    e = sub.add_parser("eval-control", help="controllability metrics on a dataset")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report", required=True)
    e.set_defaults(fn=cmd_eval_control)

    d = sub.add_parser("eval-diversity", help="diversity metrics with sampled graphs")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--samples", type=int, default=5)
    d.add_argument("--scenes", type=int, default=20, help="number of scenes to evaluate")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--report", required=True)
    d.set_defaults(fn=cmd_eval_diversity)

    s = sub.add_parser("sample-asg", help="sample a control graph for a scene")
    s.add_argument("--scene", required=True)
    s.add_argument("--mode", choices=["auto", "subgraph"], default="subgraph")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.add_argument("--world", help="world config JSON for the auto pipeline")
    s.add_argument("--threshold", type=float, default=0.5)
    s.add_argument("--clf-scenes", type=int, default=150, help="training scenes for the pair classifier")
    s.set_defaults(fn=cmd_sample_asg)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    gc.add_argument("--dim", type=int, default=16)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--eps", type=float, default=1e-5)
    gc.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
