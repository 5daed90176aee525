"""Controllability and diversity evaluation drivers.

Controllability decodes each held-out instance with the graph aligned
to its groundtruth caption and scores the output against that caption.
Diversity decodes several distinct sampled subgraphs per scene and
compares the spread of the resulting captions against a baseline that
re-decodes a single graph with beam variants.  All decodes of a scene
are one packed search over several graphs (see ``decoder.beam_search``);
control decodes stay one request per search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoRelationshipsError, ShapeError
from .graph import SceneGraph, subgraph_sampler, validate_asg
from .metrics import (
    MetricReport,
    cider_d,
    div_n,
    graph_structure_metric,
    ngram_overlap_metrics,
    parse_caption_tuples,
    self_cider,
)
from .training import Checkpoint, Dataset
from .worldgen import features_for, full_scene_graph, single_object_graph

__all__ = ["evaluate_control", "evaluate_diversity", "ControlResult", "DiversityResult"]


@dataclass
class ControlResult:
    report: MetricReport
    per_instance: list[dict]
    match_rates: dict[str, float]

    def to_json(self) -> dict:
        return {
            "report": self.report.to_json(),
            "tuple_match_rates": self.match_rates,
            "per_instance": self.per_instance,
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def evaluate_control(ckpt: Checkpoint, dataset: Dataset, beam: int | None = None) -> ControlResult:
    """Decode every instance with its groundtruth-aligned graph and
    score against the groundtruth caption.  ``beam`` defaults to the
    checkpoint's width."""
    grammar = dataset.world.grammar()
    model = ckpt.model
    width = ckpt.config.beam if beam is None else beam

    gens: list[list[str]] = []
    refs: list[list[str]] = []
    per_instance = []
    g_sums = np.zeros(4)
    exact = np.zeros(3)
    for inst in dataset.instances:
        feats = dataset.features(inst)
        tokens = model.caption_tokens(inst.graph, feats, beam=width, max_len=ckpt.config.max_len)
        gens.append(tokens)
        refs.append(list(inst.caption))
        g, g_o, g_a, g_r = graph_structure_metric(tokens, inst.caption, grammar)
        g_sums += (g, g_o, g_a, g_r)
        cg = parse_caption_tuples(tokens, grammar).as_tuple()
        cr = parse_caption_tuples(inst.caption, grammar).as_tuple()
        exact += [int(a == b) for a, b in zip(cg, cr)]
        per_instance.append(
            {
                "scene_id": inst.scene_id,
                "generated": tokens,
                "reference": inst.caption,
                "G": g,
                "counts_generated": list(cg),
                "counts_reference": list(cr),
            }
        )

    n = len(dataset.instances)
    b4, rl = ngram_overlap_metrics(gens, refs)
    cd = cider_d(gens, refs, refs)
    report = MetricReport(
        bleu4=b4,
        rouge_l=rl,
        cider_d=cd,
        g=g_sums[0] / n,
        g_o=g_sums[1] / n,
        g_a=g_sums[2] / n,
        g_r=g_sums[3] / n,
    )
    match_rates = {
        "objects": exact[0] / n,
        "attributes": exact[1] / n,
        "relations": exact[2] / n,
    }
    return ControlResult(report=report, per_instance=per_instance, match_rates=match_rates)


@dataclass
class DiversityResult:
    div1: float
    div2: float
    self_cider: float | None
    baseline_div1: float
    baseline_div2: float
    baseline_self_cider: float | None
    per_scene: list[dict]
    skipped_scenes: int  # scenes left out because every sampled graph was invalid

    def to_json(self) -> dict:
        return {
            "skipped_scenes": self.skipped_scenes,
            "sampled_graphs": {
                "div1": self.div1,
                "div2": self.div2,
                "self_cider": self.self_cider,
            },
            "repeated_graph_baseline": {
                "div1": self.baseline_div1,
                "div2": self.baseline_div2,
                "self_cider": self.baseline_self_cider,
            },
            "per_scene": self.per_scene,
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


def _distinct_subgraphs(g_full: SceneGraph, samples: int, rng: np.random.Generator, tries: int = 200):
    """Sample subgraphs until ``samples`` structurally distinct ones
    accumulate (falling back to duplicates when the source graph cannot
    offer more variety)."""
    draw = subgraph_sampler(g_full)
    seen = {}
    attempts = 0
    while len(seen) < samples and attempts < tries:
        sub = draw(rng)
        key = (
            tuple(n.role.value for n in sub.nodes),
            sub.edges,
            tuple(n.region for n in sub.nodes),
        )
        seen.setdefault(key, sub)
        attempts += 1
    out = list(seen.values())
    while len(out) < samples:
        out.append(draw(rng))
    return out[:samples]


def evaluate_diversity(
    ckpt: Checkpoint,
    dataset: Dataset,
    scene_ids: list[int],
    samples: int = 5,
    seed: int = 0,
    graph_source=None,
) -> DiversityResult:
    """Decode ``samples`` distinct sampled subgraphs per scene and score
    caption diversity; the baseline decodes the first of them with beam
    widths 1..``samples`` and keeps each run's best caption.

    A scene's decodes are one packed search: the sampled graphs at width
    1 and the baseline widths, with each distinct graph prepared once
    and its features built once.  The baseline's width-1 request is the
    first sampled request, so it is decoded once.

    ``graph_source`` maps a scene to the full graph to sample from
    (defaults to the scene's true graph; pass an automatic pipeline to
    exercise generated graphs).  A scene whose sampled graphs are all
    invalid is left out of the scores and counted in ``skipped_scenes``.
    """
    if samples < 1:
        raise ShapeError(f"samples must be >= 1, got {samples}")
    if not scene_ids:
        raise ShapeError("no scenes to evaluate")
    rng = np.random.default_rng(seed)
    model = ckpt.model
    per_scene = []
    set_scores = {"div1": [], "div2": [], "self_cider": []}
    base_scores = {"div1": [], "div2": [], "self_cider": []}
    skipped = 0

    for sid in scene_ids:
        scene = dataset.scenes[sid]
        g_full = graph_source(scene) if graph_source else full_scene_graph(scene)
        try:
            subs = _distinct_subgraphs(g_full, samples, rng)
        except NoRelationshipsError:
            subs = [
                single_object_graph(scene, int(rng.integers(len(scene.objects))), 1)
                for _ in range(samples)
            ]
        feats = [None if validate_asg(sub) else features_for(scene, sub, dataset.world) for sub in subs]
        sampled = [(sub, f, 1) for sub, f in zip(subs, feats) if f is not None]
        if not sampled:
            skipped += 1
            continue
        # baseline: re-decode the same graph, varying only the beam
        # width, and keep each run's best caption
        feats0 = feats[0] if feats[0] is not None else features_for(scene, subs[0], dataset.world)
        baseline = [(subs[0], feats0, b) for b in range(1, samples + 1)]
        decoded = model.caption_pack(sampled + baseline, max_len=ckpt.config.max_len)
        captions, base_caps = decoded[: len(sampled)], decoded[len(sampled) :]

        row = {"scene_id": sid, "captions": captions, "baseline_captions": base_caps}
        set_scores["div1"].append(div_n(captions, 1))
        set_scores["div2"].append(div_n(captions, 2))
        base_scores["div1"].append(div_n(base_caps, 1))
        base_scores["div2"].append(div_n(base_caps, 2))
        # the set-diversity score needs m >= 2 and is otherwise absent
        if len(captions) >= 2:
            set_scores["self_cider"].append(self_cider(captions))
        if len(base_caps) >= 2:
            base_scores["self_cider"].append(self_cider(base_caps))
        per_scene.append(row)

    def mean(xs):
        return float(np.mean(xs)) if xs else None

    return DiversityResult(
        div1=mean(set_scores["div1"]) or 0.0,
        div2=mean(set_scores["div2"]) or 0.0,
        self_cider=mean(set_scores["self_cider"]),
        baseline_div1=mean(base_scores["div1"]) or 0.0,
        baseline_div2=mean(base_scores["div2"]) or 0.0,
        baseline_self_cider=mean(base_scores["self_cider"]),
        per_scene=per_scene,
        skipped_scenes=skipped,
    )
