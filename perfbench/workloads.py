"""Workload inputs, set-up and timed phases.

Everything here drives graphcap through the public functions its
command line uses (``gen_dataset``, ``train``, ``Checkpoint.save`` and
``load``, ``evaluate_control``, ``evaluate_diversity``,
``CaptionModel.decode``, ``grad_check``), always looked up on their
module at call time, so that the tracer's wrappers see every call.

A phase is a fixed list of units (one call each) that is run in whole
passes.  A unit does the same work on every pass, so its fastest pass
is its cost with the least interference from whatever else the machine
runs; a rate is the work of one pass over the sum of the units' fastest
times.  On a shared machine the median of a unit's passes drifts with
the neighbours' load by far more than the fastest pass does.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from graphcap import autoasg, evaluation, gradcheck, graph, metrics, training, worldgen
from graphcap import autodiff as ad
from graphcap.errors import GraphCapError
from graphcap.model import CaptionModel, ModelConfig

import checks
import tracing

WORLD = worldgen.WorldConfig(dim=64)
N_TRAIN = 512  # the train split: the corpus's first instances
N_CANDIDATES = 768  # the instances after it, from which the evaluation inputs are drawn
# The set-up trains the decoding checkpoint (two epochs over a train
# split) and the pair classifier from a fixed seed, so every workload
# seed decodes with the same model: a model of another seed ends its
# beams at other steps, which moves decode cost per caption token by 10%.
ARTEFACT_SEED = 0
CHECKPOINT_EPOCHS = 2
TRAIN_SLICE = 32  # instances per train() call: one batch, one Adam step
CONTROL_SLICE = 4  # held-out instances per evaluate_control() call
DIVERSITY_SAMPLES = 5  # graphs per scene, as in the paper's diversity experiment
CLASSIFIER_SCENES = 150  # the command line's default for sample-asg --mode auto

# The held-out instances come in blocks of eight with these reference
# caption lengths (the shape of the control graph), and the diversity
# scenes in blocks of five with these object counts, each drawn in
# corpus order.  A plain seeded sample's own mix moves decode cost per
# token and per scene by 10% from seed to seed, and puts the median
# request at 5 or at 6 decode steps; fixed mixes keep the rates, the p50
# and the p90 apart from that.
LENGTH_BLOCK = (4, 5, 5, 6, 6, 6, 7, 7)
HELDOUT_BLOCKS = 16  # 128 held-out instances, so >= 10 requests lie beyond the p90
OBJECTS_BLOCK = (2, 3, 4, 5, 6)
DIVERSITY_BLOCKS = 6
CHECK_INSTANCES = 8  # held-out instances for the training checks
DIRECTION_EPS = 1e-5
MIN_PASSES = 3

# the Tier-1 instance of test_01_gradient_fidelity, and the parameter
# tensors whose coordinates one grad_check call perturbs
TIER1_DIM = 16
TIER1_SEED = 1
TIER1_TOKENS = 6
GRADCHECK_TENSORS = ("encoder.role_table", "decoder.sentinel_w")


def train_config(seed: int, epochs: int) -> training.TrainConfig:
    return training.TrainConfig(dim=64, n_layers=2, lr=2e-3, batch_size=32, epochs=epochs, seed=seed)


@dataclass
class Tier1:
    model: CaptionModel
    graph: object
    feats: object
    ids: list[int]
    params: list


@dataclass
class Inputs:
    seed: int
    train_set: training.Dataset
    heldout: training.Dataset
    diversity_scenes: list[int]
    ckpt: training.Checkpoint
    clf: object
    tier1: Tier1
    auto_graphs: dict = field(default_factory=dict)
    untrained_loss: float | None = None


def tier1_instance() -> Tier1:
    world = worldgen.WorldConfig(dim=TIER1_DIM, n_object_classes=2, n_attr_classes=2, n_rel_classes=2)
    rng = np.random.default_rng(TIER1_SEED)
    scene = worldgen.gen_scene(world, rng)
    full = worldgen.full_scene_graph(scene)
    sub = next(g for g in (graph.sample_subgraph(full, rng) for _ in range(1000)) if g.n_nodes == 5)
    feats, g, caption = worldgen.make_triplet(scene, sub, world)
    vocab = world.grammar().build_vocab()
    ids = (vocab.encode(caption) + [vocab.unk_id] * TIER1_TOKENS)[:TIER1_TOKENS]
    model = CaptionModel(ModelConfig(dim=TIER1_DIM, n_layers=2), vocab, seed=TIER1_SEED)
    named = dict(model.named_parameters())
    return Tier1(model, g, feats, ids, [named[n] for n in GRADCHECK_TENSORS])


def stratified(items, key, block, n_blocks: int) -> list:
    """``n_blocks`` repeats of ``block``, each place filled with the
    next item in order whose ``key`` equals the block's value."""
    pools = defaultdict(deque)
    for item in items:
        pools[key(item)].append(item)
    try:
        return [pools[value].popleft() for _ in range(n_blocks) for value in block]
    except IndexError:
        raise RuntimeError(f"too few candidates to fill {n_blocks} blocks of {block}") from None


def _instances(rows) -> list[training.Instance]:
    return [training.Instance(r["scene_id"], r["graph"], r["caption"]) for r in rows]


def setup(seed: int, workdir: Path) -> Inputs:
    """Seeded inputs, and the fixed checkpoint (trained, saved and
    loaded as the command line does) and pair classifier."""
    scenes, rows = worldgen.gen_dataset(WORLD, N_TRAIN + N_CANDIDATES, seed=seed)
    vocab = WORLD.grammar().build_vocab()
    insts = _instances(rows)
    train_set = training.Dataset(WORLD, scenes, insts[:N_TRAIN], vocab)
    candidates = insts[N_TRAIN:]
    held = stratified(candidates, lambda i: len(i.caption), LENGTH_BLOCK, HELDOUT_BLOCKS)
    heldout = training.Dataset(WORLD, scenes, held, vocab)
    first_scene = candidates[0].scene_id + 1  # the train split may end inside a scene
    scene_ids = stratified(range(first_scene, len(scenes)), lambda sid: len(scenes[sid].objects),
                           OBJECTS_BLOCK, DIVERSITY_BLOCKS)
    ck_scenes, ck_rows = worldgen.gen_dataset(WORLD, N_TRAIN, seed=ARTEFACT_SEED)
    ck_set = training.Dataset(WORLD, ck_scenes, _instances(ck_rows), vocab)
    ckpt, _ = training.train(train_config(ARTEFACT_SEED, CHECKPOINT_EPOCHS), ck_set)
    ckpt.save(workdir / "ckpt")
    ckpt = training.Checkpoint.load(workdir / "ckpt")
    clf = autoasg.train_relation_classifier(WORLD, n_scenes=CLASSIFIER_SCENES, seed=ARTEFACT_SEED)
    return Inputs(seed, train_set, heldout, scene_ids, ckpt, clf, tier1_instance())


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ops: int  # operations attempted
    work: float  # the rate's numerator
    output: object  # compared across passes
    steps: int | None = None  # decoder steps the unit must take, when known
    detail: object = None  # kept from the first pass for the checks


@dataclass
class Phase:
    name: str
    metric: str
    op: str
    units: list
    run: Callable[[Inputs, object], Outcome]
    check: Callable[[Inputs, object, Outcome], list[str]]
    nominal_ops: Callable[[object], int]


def _digest(model) -> str:
    h = hashlib.sha256()
    for _, t in model.named_parameters():
        h.update(t.data.tobytes())
    return h.hexdigest()


def _subset(ds: training.Dataset, instances) -> training.Dataset:
    return training.Dataset(ds.world, ds.scenes, list(instances), ds.vocab)


def _run_train(inp: Inputs, insts) -> Outcome:
    ckpt, _ = training.train(train_config(inp.seed, 1), _subset(inp.train_set, insts))
    steps = sum(len(i.caption) + 1 for i in insts)
    return Outcome(len(insts), len(insts), _digest(ckpt.model), steps, ckpt)


def heldout_loss(model, instances, ds) -> float:
    vals = [model.loss(i.graph, ds.features(i), ds.vocab.encode(i.caption))[0].item() for i in instances]
    return float(np.mean(vals))


def _check_train(inp: Inputs, insts, out: Outcome) -> list[str]:
    model = out.detail.model
    ds = inp.heldout
    fixed = ds.instances[:CHECK_INSTANCES]
    if inp.untrained_loss is None:
        untrained = CaptionModel(train_config(inp.seed, 0).model_config(), ds.vocab, seed=inp.seed)
        inp.untrained_loss = heldout_loss(untrained, fixed, ds)
    problems = checks.loss_decreased(heldout_loss(model, fixed, ds), inp.untrained_loss)

    params = model.parameters()
    rng = np.random.default_rng(inp.seed)
    direction = [rng.normal(size=p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.vdot(d, d)) for d in direction))
    direction = [d / norm for d in direction]
    probe = fixed[:2]

    def total_loss():
        return sum(heldout_loss(model, [i], ds) for i in probe)

    ad.zero_grads(params)
    for inst in probe:
        with ad.record() as tape:
            loss, _ = model.loss(inst.graph, ds.features(inst), ds.vocab.encode(inst.caption))
        ad.backward(tape, loss)
    grads = [p.grad.copy() for p in params]
    originals = [p.data for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, o, d in zip(params, originals, direction):
            p.data = o + sign * DIRECTION_EPS * d
        values.append(total_loss())
    for p, o in zip(params, originals):
        p.data = o
    problems += checks.directional_gradient(grads, direction, values[0], values[1], DIRECTION_EPS)
    return problems


def _generated_tokens(tokens: list[str], max_len: int) -> int:
    """Decoder steps behind a caption: its words plus the end token,
    unless the search stopped at the length limit."""
    return min(len(tokens) + 1, max_len)


def _control(beam: int):
    def run(inp: Inputs, insts) -> Outcome:
        result = evaluation.evaluate_control(inp.ckpt, _subset(inp.heldout, insts), beam=beam)
        gens = [row["generated"] for row in result.per_instance]
        tokens = sum(_generated_tokens(g, inp.ckpt.config.max_len) for g in gens)
        return Outcome(len(insts), tokens, gens, tokens if beam == 1 else None)

    return run


def _check_control(inp: Inputs, insts, out: Outcome) -> list[str]:
    grammar = WORLD.grammar()
    return checks.reference_counts(
        insts, lambda cap: metrics.parse_caption_tuples(cap, grammar), graph.NodeRole
    )


def _auto_graph_source(inp: Inputs):
    """The automatic pipeline as evaluate_diversity's graph source; the
    proposals of a scene are seeded by the scene, so passes repeat."""

    def source(scene):
        proposals = autoasg.jitter_proposals(scene, np.random.default_rng(scene.seed))
        g = autoasg.auto_generate_asg(scene, proposals, inp.clf, WORLD)
        inp.auto_graphs.setdefault(id(scene), g)
        return g

    return source


def _run_diversity(inp: Inputs, scene_ids) -> Outcome:
    result = evaluation.evaluate_diversity(
        inp.ckpt, inp.heldout, list(scene_ids), samples=DIVERSITY_SAMPLES,
        seed=inp.seed, graph_source=_auto_graph_source(inp),
    )
    decoded = sum(len(r["captions"]) + len(r["baseline_captions"]) for r in result.per_scene)
    captions = [(r["captions"], r["baseline_captions"]) for r in result.per_scene]
    return Outcome(decoded, len(result.per_scene), captions, detail=result)


def _check_diversity(inp: Inputs, scene_ids, out: Outcome) -> list[str]:
    problems = checks.diversity_scores(out.detail)
    graphs = [inp.auto_graphs[id(inp.heldout.scenes[sid])] for sid in scene_ids]
    return problems + checks.valid_graphs(graphs, graph.validate_asg)


def _run_caption(inp: Inputs, inst) -> Outcome:
    """One request served the way ``graphcap caption`` serves it."""
    model = inp.ckpt.model
    scene = inp.heldout.scenes[inst.scene_id]
    if graph.validate_asg(inst.graph):
        raise GraphCapError("invalid control graph")
    feats = worldgen.features_for(scene, inst.graph, WORLD)
    hyps = model.decode(inst.graph, feats, beam=5, max_len=inp.ckpt.config.max_len)
    words = [model.token_text(t) for t in hyps[0].tokens if t != model.eos_id]
    return Outcome(1, 1, words, detail=hyps)


def _check_caption(inp: Inputs, inst, out: Outcome) -> list[str]:
    model = inp.ckpt.model
    feats = worldgen.features_for(inp.heldout.scenes[inst.scene_id], inst.graph, WORLD)

    def summed_nll(ids):
        loss, n = model.loss(inst.graph, feats, ids)
        return loss.item() * n

    return checks.beam_scores(out.detail, model.eos_id, summed_nll)


def _run_gradcheck(inp: Inputs, _unit) -> Outcome:
    t1 = inp.tier1
    evals = 0

    def f():
        nonlocal evals
        evals += 1
        return t1.model.loss(t1.graph, t1.feats, t1.ids)[0]

    err = gradcheck.grad_check(f, t1.params, eps=1e-5)
    return Outcome(evals, evals, err, detail=err)


def _check_gradcheck(inp: Inputs, _unit, out: Outcome) -> list[str]:
    coords = sum(p.size for p in inp.tier1.params)
    return checks.gradcheck_result(out.detail, out.ops, coords)


def make_phase(inp: Inputs, name: str, size: int) -> Phase:
    """The phase ``name`` over ``size`` units of the seeded inputs."""
    held = inp.heldout.instances
    if name == "train":
        units = [inp.train_set.instances[k * TRAIN_SLICE:(k + 1) * TRAIN_SLICE] for k in range(size)]
        return Phase(name, "train_instances_per_s", "trained instances", units, _run_train, _check_train, len)
    if name in ("control5", "greedy"):
        units = [held[k * CONTROL_SLICE:(k + 1) * CONTROL_SLICE] for k in range(size)]
        beam = 5 if name == "control5" else 1
        metric = "control_tokens_per_s" if beam == 5 else "greedy_tokens_per_s"
        return Phase(name, metric, "decoded captions", units, _control(beam), _check_control, len)
    if name == "diversity":
        units = [[sid] for sid in inp.diversity_scenes[:size]]
        return Phase(name, "diversity_scenes_per_s", "decoded captions", units, _run_diversity,
                     _check_diversity, lambda u: 2 * DIVERSITY_SAMPLES * len(u))
    if name == "captions":
        return Phase(name, "caption_ms", "decoded captions", held[:size], _run_caption,
                     _check_caption, lambda u: 1)
    if name == "gradcheck":
        return Phase(name, "gradcheck_evals_per_s", "loss evaluations", [None] * size,
                     _run_gradcheck, _check_gradcheck,
                     lambda u: 2 * sum(p.size for p in inp.tier1.params) + 1)
    raise ValueError(f"unknown phase {name}")


# Each workload: (phase, units per pass).  The first phase is the
# workload's own; the rest are probes, so that every end-to-end metric
# is measured on every workload.
SCHEDULES = {
    "train": [("train", 16), ("control5", 8), ("greedy", 32), ("diversity", 10),
              ("captions", 128), ("gradcheck", 4)],
    "eval": [("control5", 32), ("greedy", 32), ("diversity", 30),
             ("captions", 128), ("train", 4), ("gradcheck", 4)],
    "gradcheck": [("gradcheck", 32), ("train", 4), ("control5", 8), ("greedy", 32),
                  ("diversity", 10), ("captions", 128)],
}


@dataclass
class PhaseResult:
    name: str
    metric: str
    op: str
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    work_per_pass: float = 0.0
    unit_times: list = field(default_factory=list)  # per unit, one time per pass
    plain_times: list = field(default_factory=list)  # the same, untraced, in a traced run
    problems: list = field(default_factory=list)

    def fastest(self) -> list[float]:
        return [min(ts) for ts in self.unit_times]

    def rate(self) -> float:
        return self.work_per_pass / sum(self.fastest())

    def overhead_s(self) -> float:
        """Tracing overhead of one pass: traced minus untraced."""
        return sum(self.fastest()) - sum(min(ts) for ts in self.plain_times)


def _one_pass(inp: Inputs, phase: Phase, res: PhaseResult, first: list, tracer, traced: bool) -> float:
    """Run every unit of ``phase`` once; returns the seconds spent in
    checks.  Each unit's first output is checked, and later outputs must
    repeat it."""
    clock = time.perf_counter
    checking = 0.0
    for k, unit in enumerate(phase.units):
        steps0 = tracer.stats.calls[tracing.LANGUAGE_STEP] if traced else 0
        t0 = clock()
        try:
            out = phase.run(inp, unit)
        except GraphCapError as exc:
            dt = clock() - t0
            res.failed += phase.nominal_ops(unit)
            res.attempted += phase.nominal_ops(unit)
            res.problems.append(f"{phase.name}: {exc}")
            out = None
        else:
            dt = clock() - t0
            res.attempted += out.ops
        (res.unit_times if traced or not tracer else res.plain_times)[k].append(dt)
        if out is None:
            continue
        if traced and out.steps is not None:
            steps = tracer.stats.calls[tracing.LANGUAGE_STEP] - steps0
            res.problems += checks.step_count(steps, out.steps, f"{phase.name} unit {k}")
        c0 = clock()
        with tracer.excluded() if traced else contextlib.nullcontext():
            if first[k] is None:
                first[k] = out
                res.work_per_pass += out.work
                res.problems += phase.check(inp, unit, out)
                out.detail = None
            else:
                res.problems += checks.same_output(first[k].output, out.output, f"{phase.name} unit {k}")
        checking += clock() - c0
    return checking


def run_rounds(inp: Inputs, phases: list[Phase], seconds: float, tracer=None) -> tuple[dict, int]:
    """Rounds of one pass of every phase, until ``seconds`` of work are
    done and at least MIN_PASSES rounds ran.  Interleaving the phases
    spreads each one's passes over the whole run, so that a slow spell
    of the machine does not fall on every pass of one phase.  With a
    tracer, each traced pass follows an untraced one, whose times give
    the tracing overhead.  Returns the results by phase and the rounds."""
    results = {
        ph.name: PhaseResult(ph.name, ph.metric, ph.op, unit_times=[[] for _ in ph.units],
                             plain_times=[[] for _ in ph.units] if tracer else [])
        for ph in phases
    }
    firsts = {ph.name: [None] * len(ph.units) for ph in phases}
    clock = time.perf_counter
    checking = 0.0
    rounds = 0
    start = clock()
    while rounds < MIN_PASSES or clock() - start - checking < seconds:
        for ph in phases:
            res, first = results[ph.name], firsts[ph.name]
            if not tracer:
                checking += _one_pass(inp, ph, res, first, None, False)
                continue
            checking += _one_pass(inp, ph, res, first, tracer, False)
            tracer.install()
            try:
                checking += _one_pass(inp, ph, res, first, tracer, True)
            finally:
                tracer.uninstall()
        rounds += 1
    for res in results.values():
        res.passes = rounds
    return results, rounds
