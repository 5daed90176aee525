"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints one pass/fail line.  Training-based criteria share
session-scoped fixtures (one full training run, one ablation run, one
untrained baseline) over a 2000/500 train/held-out synthetic corpus.
"""

import time

import numpy as np
import pytest

from graphcap import autodiff as ad
from graphcap.autoasg import auto_generate_asg, jitter_proposals, train_relation_classifier
from graphcap.decoder import (
    content_attention,
    flow_attention,
    fuse_and_context,
    graph_update,
    init_decoder_params,
)
from graphcap.evaluation import evaluate_control, evaluate_diversity
from graphcap.gradcheck import grad_check
from graphcap.graph import (
    Node,
    NodeRole,
    SceneGraph,
    build_flow,
    flow_step,
    sample_subgraph,
    validate_asg,
)
from graphcap.metrics import (
    cider_d,
    div_n,
    graph_structure_metric,
    ngram_overlap_metrics,
    parse_caption_tuples,
    self_cider,
)
from graphcap.model import CaptionModel, ModelConfig
from graphcap.training import Dataset, Instance, TrainConfig, train
from graphcap.worldgen import (
    WorldConfig,
    features_for,
    full_scene_graph,
    gen_dataset,
    gen_scene,
    make_triplet,
)

from test_graph import enumerate_valid_graphs, flow_step_oracle
from test_metrics import oracle_cider


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num:2d}] {status}: {desc}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# shared corpus and models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def corpus():
    world = WorldConfig(dim=64)
    scenes, rows = gen_dataset(world, 2500, seed=21)
    vocab = world.grammar().build_vocab()
    insts = [Instance(r["scene_id"], r["graph"], r["caption"]) for r in rows]
    train_ds = Dataset(world=world, scenes=scenes, instances=insts[:2000], vocab=vocab)
    eval_ds = Dataset(world=world, scenes=scenes, instances=insts[2000:], vocab=vocab)
    return train_ds, eval_ds


def _train_cfg(**kw):
    base = dict(dim=64, epochs=10, lr=2e-3, batch_size=32, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def trained_full(corpus):
    train_ds, _ = corpus
    ckpt, curve = train(_train_cfg(), train_ds)
    return ckpt, curve


@pytest.fixture(scope="session")
def trained_role_off(corpus):
    # the role toggle is evaluated without the graph-convolution context,
    # where role information is the only object/attribute discriminator
    train_ds, _ = corpus
    cfg = _train_cfg(
        use_role_embed=False,
        use_mrgcn=False,
        use_flow_attention=False,
        use_graph_update=False,
    )
    ckpt, _ = train(cfg, train_ds)
    return ckpt


@pytest.fixture(scope="session")
def untrained(corpus):
    train_ds, _ = corpus
    ckpt, _ = train(_train_cfg(epochs=0), train_ds)
    return ckpt


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------


def test_01_gradient_fidelity():
    world = WorldConfig(dim=16, n_object_classes=2, n_attr_classes=2, n_rel_classes=2)
    rng = np.random.default_rng(1)
    scene = gen_scene(world, rng)
    g_full = full_scene_graph(scene)
    sub = None
    for _ in range(1000):
        cand = sample_subgraph(g_full, rng)
        if cand.n_nodes == 5:
            sub = cand
            break
    assert sub is not None
    feats, graph, caption = make_triplet(scene, sub, world)
    vocab = world.grammar().build_vocab()
    caption_ids = (vocab.encode(caption) + [vocab.unk_id] * 6)[:6]

    model = CaptionModel(ModelConfig(dim=16, n_layers=2), vocab, seed=1)
    params = model.parameters()
    start = time.perf_counter()
    err = grad_check(lambda: model.loss(graph, feats, caption_ids)[0], params, eps=1e-5)
    elapsed = time.perf_counter() - start
    ok = err < 1e-4 and elapsed < 60.0
    report(1, "full-model gradient check (d=16, 5-node graph, 6 tokens)", ok,
           f"max rel err {err:.2e}, {elapsed:.1f} s, {sum(p.size for p in params)} coords")
    assert err < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. attention laws
# ---------------------------------------------------------------------------


def test_02_attention_laws():
    rng = np.random.default_rng(2)
    graphs = [g for g in enumerate_valid_graphs(5) if g.n_nodes >= 2]
    d = 8
    steps = 0
    ok = True
    worst = 0.0
    while steps < 1000:
        params = init_decoder_params(d, 11, np.random.default_rng(rng.integers(2**31)))
        g = graphs[rng.integers(len(graphs))]
        fg = build_flow(g)
        for _ in range(25):
            # one row (K = 1) of each input
            x = ad.tensor(rng.normal(size=(1, fg.n_slots, d)))
            h = ad.tensor(rng.normal(size=(1, d)))
            z = ad.tensor(rng.normal(size=(1, d)))
            raw = rng.random((1, fg.n_slots)) + 1e-9
            alpha_prev = ad.tensor(raw / raw.sum())

            a_c = content_attention(params, x, h, np.zeros((1, fg.n_slots)))
            a_f, modes = flow_attention(params, fg.matrix[None], alpha_prev, h, z)
            a_t, _, beta = fuse_and_context(params, a_c, a_f, h, z, x)
            for vec in (a_c.data, a_f.data, a_t.data):
                worst = max(worst, abs(vec.sum() - 1.0))
                if vec.min() < 0 or abs(vec.sum() - 1.0) > 1e-9:
                    ok = False
            s = modes.data
            if s.min() < 0 or abs(s.sum() - 1.0) > 1e-9 or s.shape != (1, 3):
                ok = False
            b = float(beta.data[0, 0])
            if not (0.0 < b < 1.0):
                ok = False
            steps += 1
            if steps >= 1000:
                break
    report(2, "attention distributions over 1000 random steps", ok,
           f"worst |sum-1| = {worst:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. flow-graph oracle
# ---------------------------------------------------------------------------


def test_03_flow_graph_oracle():
    rng = np.random.default_rng(3)
    graphs = enumerate_valid_graphs(6)
    row_ok = True
    step_ok = True
    checked = 0
    for g in graphs:
        fg = build_flow(g)
        has_in = {d for _, d in fg.edges}
        sums = fg.matrix.sum(axis=1)
        for i in range(fg.n_slots):
            if i in has_in and abs(sums[i] - 1.0) > 1e-12:
                row_ok = False
            if i not in has_in and sums[i] != 0.0:
                row_ok = False
        alphas = [np.eye(fg.n_slots)[i] for i in range(fg.n_slots)]
        raw = rng.random(fg.n_slots)
        alphas.append(raw / raw.sum())
        for alpha in alphas:
            if abs(alpha.sum() - 1.0) > 1e-9:
                continue
            for k in (1, 2):
                got = flow_step(fg, alpha, k)
                want = flow_step_oracle(fg, alpha, k)
                checked += 1
                if not np.array_equal(got, want):
                    step_ok = False
    ok = row_ok and step_ok
    report(3, "flow transitions match exact path enumeration", ok,
           f"{len(graphs)} graphs, {checked} transports, exact equality")
    assert row_ok, "some in-degree-normalized row does not sum to 1 within 1e-12"
    assert step_ok, "flow_step mismatch vs path enumeration"


# ---------------------------------------------------------------------------
# 4. graph-update locality
# ---------------------------------------------------------------------------


def test_04_graph_update_locality():
    rng = np.random.default_rng(4)
    d = 8
    checked_slots = 0
    ok = True
    for step in range(1000):
        params = init_decoder_params(d, 7, np.random.default_rng(rng.integers(2**31)))
        if step % 2 == 0:
            params.sentinel_b = ad.parameter(np.array([-1000.0]))  # sentinel exactly 0
        n_slots = int(rng.integers(2, 8))
        x = ad.tensor(rng.normal(size=(1, n_slots, d)))  # one row (K = 1)
        mask = rng.random(n_slots) < 0.5
        if not mask.any():
            mask[0] = True
        raw = rng.random(n_slots) * mask
        alpha = ad.tensor([raw / raw.sum()])
        h = ad.tensor(rng.normal(size=(1, d)))
        x_new, sentinel = graph_update(params, x, h, alpha)
        u = sentinel.data[0, 0] * alpha.data[0]
        for i in range(n_slots):
            if u[i] == 0.0:
                checked_slots += 1
                if not np.array_equal(x_new.data[0, i], x.data[0, i]):
                    ok = False
    report(4, "zero-intensity slots bit-identical across 1000 updates", ok,
           f"{checked_slots} zero-intensity slots checked")
    assert ok
    assert checked_slots > 1000


# ---------------------------------------------------------------------------
# 5. overfit regression
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def overfit_run():
    world = WorldConfig(dim=64)
    scenes, rows = gen_dataset(world, 50, seed=11)
    vocab = world.grammar().build_vocab()
    ds = Dataset(
        world=world,
        scenes=scenes,
        instances=[Instance(r["scene_id"], r["graph"], r["caption"]) for r in rows],
        vocab=vocab,
    )
    start = time.perf_counter()
    # full-batch steps keep the per-epoch loss monotone (pilot: final
    # 0.010 nats/token at 95 s, no jitter above 1e-3)
    ckpt, curve = train(TrainConfig(dim=64, epochs=200, lr=3e-3, batch_size=50, seed=0), ds)
    elapsed = time.perf_counter() - start
    return ds, ckpt, curve, elapsed


def test_05_overfit_regression(overfit_run):
    ds, ckpt, curve, elapsed = overfit_run
    reproduced = 0
    for inst in ds.instances:
        toks = ckpt.model.caption_tokens(inst.graph, ds.features(inst), beam=1)
        reproduced += int(toks == inst.caption)
    rate = reproduced / len(ds.instances)
    ok = curve[-1] < 0.05 and rate >= 0.9 and elapsed < 600
    report(5, "50-triplet overfit: loss < 0.05 and >= 90% exact reproduction", ok,
           f"loss {curve[-1]:.4f}, reproduction {reproduced}/{len(ds.instances)}, {elapsed:.0f} s")
    assert curve[-1] < 0.05
    assert rate >= 0.9
    assert elapsed < 600


def test_05b_overfit_loss_monotone(overfit_run):
    _, _, curve, _ = overfit_run
    jitter_ok = all(b <= a + 1e-3 for a, b in zip(curve, curve[1:]))
    report(5, "overfit loss curve non-increasing within 1e-3 jitter", jitter_ok,
           f"{len(curve)} epochs")
    assert jitter_ok


# ---------------------------------------------------------------------------
# 6. controllability regression
# ---------------------------------------------------------------------------


def test_06_controllability(corpus, trained_full, trained_role_off, untrained):
    _, eval_ds = corpus
    ckpt, _ = trained_full
    res_full = evaluate_control(ckpt, eval_ds, beam=1)
    res_off = evaluate_control(trained_role_off, eval_ds, beam=1)
    res_raw = evaluate_control(untrained, eval_ds, beam=1)

    g_full, g_off, g_raw = res_full.report.g, res_off.report.g, res_raw.report.g
    direction_ok = g_full < g_raw and g_full < g_off
    rates = res_full.match_rates
    rates_ok = all(v >= 0.80 for v in rates.values())
    schema = res_full.report.to_json()
    schema_ok = set(schema) == {
        "bleu4", "rouge_l", "cider_d", "G", "G_o", "G_a", "G_r", "div1", "div2", "self_cider",
    }
    ok = direction_ok and rates_ok and schema_ok
    report(6, "controllability: G(full) < G(untrained), G(role-off); matches >= 80%", ok,
           f"G full {g_full:.3f} vs untrained {g_raw:.3f} vs role-off {g_off:.3f}; "
           f"match rates o={rates['objects']:.2f} a={rates['attributes']:.2f} r={rates['relations']:.2f}")
    assert direction_ok
    assert rates_ok
    assert schema_ok


# ---------------------------------------------------------------------------
# 7. paired perturbation
# ---------------------------------------------------------------------------


def _augment_with_attribute(g: SceneGraph, scene) -> SceneGraph | None:
    """Add one attribute node to an object that currently has none (the
    perturbation the subgraph sampler itself draws, so the pair stays
    in-distribution); None when no such endpoint exists."""
    for obj in g.nodes:
        if obj.role is not NodeRole.OBJECT:
            continue
        if g.attribute_order.get(obj.id):
            continue
        if scene.objects[obj.region].attrs:
            nid = g.n_nodes
            nodes = g.nodes + (Node(id=nid, role=NodeRole.ATTRIBUTE, region=obj.region),)
            edges = g.edges + ((obj.id, nid),)
            order = dict(g.attribute_order)
            order[obj.id] = (nid,)
            return SceneGraph(nodes=nodes, edges=edges, attribute_order=order)
    return None


def test_07_paired_perturbation(corpus, trained_full):
    train_ds, eval_ds = corpus
    ckpt, _ = trained_full
    grammar = eval_ds.world.grammar()
    increases = 0
    pairs = 0
    for inst in eval_ds.instances:
        if pairs >= 200:
            break
        scene = eval_ds.scenes[inst.scene_id]
        aug = _augment_with_attribute(inst.graph, scene)
        if aug is None:
            continue
        base_toks = ckpt.model.caption_tokens(inst.graph, features_for(scene, inst.graph, eval_ds.world), beam=1)
        aug_toks = ckpt.model.caption_tokens(aug, features_for(scene, aug, eval_ds.world), beam=1)
        base_c = parse_caption_tuples(base_toks, grammar)
        aug_c = parse_caption_tuples(aug_toks, grammar)
        pairs += 1
        increases += int(aug_c.n_attr_pairs > base_c.n_attr_pairs)
    rate = increases / pairs if pairs else 0.0
    ok = pairs >= 200 and rate >= 0.80
    report(7, "adding an attribute node raises attribute-pair count in >= 80% of 200 pairs",
           ok, f"{increases}/{pairs} increased ({rate:.2f})")
    assert pairs >= 200
    assert rate >= 0.80


# ---------------------------------------------------------------------------
# 8. diversity direction
# ---------------------------------------------------------------------------


def test_08_diversity_direction(corpus, trained_full):
    train_ds, eval_ds = corpus
    ckpt, _ = trained_full
    scene_ids = sorted({inst.scene_id for inst in eval_ds.instances})[:12]
    result = evaluate_diversity(ckpt, eval_ds, scene_ids, samples=5, seed=5)
    ok = (
        result.self_cider is not None
        and result.baseline_self_cider is not None
        and result.div1 > result.baseline_div1
        and result.self_cider > result.baseline_self_cider
    )
    report(8, "sampled-graph diversity exceeds repeated-graph baseline", ok,
           f"div1 {result.div1:.3f} > {result.baseline_div1:.3f}; "
           f"selfcider {result.self_cider:.3f} > {result.baseline_self_cider:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 9. metric unit suite
# ---------------------------------------------------------------------------


def test_09_metric_units():
    grammar = WorldConfig(dim=8).grammar()
    cap = "the red cat near the box".split()
    b4, rl = ngram_overlap_metrics([cap], [cap])
    g, *_ = graph_structure_metric(cap, cap, grammar)
    sc = self_cider([cap] * 4)
    d1 = div_n(["a red ball".split()] * 5, 1)

    corpus = [
        "the red cat near the box".split(),
        "there is a blue ball".split(),
        "the dog chases the red ball".split(),
    ]
    gens = [
        "the red cat near the box".split(),
        "there is a red ball".split(),
        "the dog chases the ball".split(),
    ]
    got = cider_d(gens, corpus, corpus)
    want = float(np.mean([oracle_cider(gen, ref, corpus) for gen, ref in zip(gens, corpus)]))
    cider_ok = abs(got - want) < 1e-9

    ok = b4 == 1.0 and rl == 1.0 and g == 0.0 and sc == 0.0 and abs(d1 - 0.2) < 1e-15 and cider_ok
    report(9, "metric fixtures: identity scores, div1 = 0.2, tf-idf oracle within 1e-9", ok,
           f"bleu {b4}, rouge {rl}, G {g}, selfcider {sc}, div1 {d1:.3f}, cider diff {abs(got - want):.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 10. grammar round trip
# ---------------------------------------------------------------------------


def test_10_grammar_round_trip():
    world = WorldConfig(dim=8)
    grammar = world.grammar()
    rng = np.random.default_rng(10)
    failures = 0
    for _ in range(10_000):
        scene = gen_scene(world, rng)
        sub = sample_subgraph(full_scene_graph(scene), rng)
        toks = grammar.render_caption(scene, sub)
        c = parse_caption_tuples(toks, grammar)
        want = (
            len(sub.nodes_with_role(NodeRole.OBJECT)),
            len(sub.nodes_with_role(NodeRole.ATTRIBUTE)),
            len(sub.nodes_with_role(NodeRole.RELATIONSHIP)),
        )
        if c.as_tuple() != want:
            failures += 1
    report(10, "parse(render(g)) tuple counts equal graph counts on 10^4 graphs",
           failures == 0, f"{failures} failures")
    assert failures == 0


# ---------------------------------------------------------------------------
# 11. automatic graph validity
# ---------------------------------------------------------------------------


def test_11_auto_graph_validity():
    world = WorldConfig(dim=16)
    clf = train_relation_classifier(world, n_scenes=80, seed=7, epochs=10)
    rng = np.random.default_rng(11)
    invalid = 0
    rel_at_zero = 0
    for i in range(1000):
        scene = gen_scene(world, rng)
        proposals = jitter_proposals(scene, rng)
        g = auto_generate_asg(scene, proposals, clf, world, threshold=0.5)
        if validate_asg(g):
            invalid += 1
        if i < 100:
            g0 = auto_generate_asg(scene, proposals, clf, world, threshold=0.0)
            rel_at_zero += len(g0.nodes_with_role(NodeRole.RELATIONSHIP))
    ok = invalid == 0 and rel_at_zero == 0
    report(11, "automatic graphs valid on 10^3 scenes; threshold 0 yields no relations",
           ok, f"{invalid} invalid, {rel_at_zero} relations at threshold 0")
    assert ok
