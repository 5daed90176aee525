"""Self-tests of the benchmark: each correctness check must pass on a
right output and fail on a corrupted one, and the tracer must count
what it wraps and put every original back.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import graphcap  # noqa: E402
from graphcap import autodiff as ad  # noqa: E402
from graphcap import metrics  # noqa: E402
from graphcap.graph import Node, NodeRole, SceneGraph, validate_asg  # noqa: E402
from graphcap.model import CaptionModel, ModelConfig  # noqa: E402
from graphcap.worldgen import WorldConfig, features_for, gen_dataset  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

WORLD = WorldConfig(dim=8, n_object_classes=3, n_attr_classes=3, n_rel_classes=3)


def tiny():
    scenes, rows = gen_dataset(WORLD, 24, seed=3)
    vocab = WORLD.grammar().build_vocab()
    model = CaptionModel(ModelConfig(dim=8, n_layers=1), vocab, seed=0)
    return scenes, rows, vocab, model


class TestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scenes, cls.rows, cls.vocab, cls.model = tiny()
        row = cls.rows[0]
        cls.graph = row["graph"]
        cls.feats = features_for(cls.scenes[row["scene_id"]], cls.graph, WORLD)
        cls.ids = cls.vocab.encode(row["caption"])

    def summed_nll(self, ids):
        loss, n = self.model.loss(self.graph, self.feats, ids)
        return loss.item() * n

    def test_beam_score_shifted_by_1e_minus_6(self):
        eos = self.vocab.eos_id
        hyp = types.SimpleNamespace(tokens=self.ids + [eos], score=-self.summed_nll(self.ids))
        unfinished = types.SimpleNamespace(tokens=self.ids, score=0.0)
        self.assertEqual(checks.beam_scores([hyp, unfinished], eos, self.summed_nll), [])
        hyp.score += 1e-6
        self.assertTrue(checks.beam_scores([hyp], eos, self.summed_nll))

    def test_gradient_with_one_coordinate_sign_flipped(self):
        params = self.model.parameters()
        eps = 1e-5
        rng = np.random.default_rng(0)
        direction = [rng.normal(size=p.data.shape) for p in params]
        norm = np.sqrt(sum(float(np.vdot(d, d)) for d in direction))
        direction = [d / norm for d in direction]
        ad.zero_grads(params)
        with ad.record() as tape:
            loss, _ = self.model.loss(self.graph, self.feats, self.ids)
        ad.backward(tape, loss)
        grads = [p.grad.copy() for p in params]
        originals = [p.data for p in params]
        values = []
        for sign in (1.0, -1.0):
            for p, o, d in zip(params, originals, direction):
                p.data = o + sign * eps * d
            values.append(self.model.loss(self.graph, self.feats, self.ids)[0].item())
        for p, o in zip(params, originals):
            p.data = o
        self.assertEqual(checks.directional_gradient(grads, direction, *values, eps), [])
        # flip the coordinate that contributes most to the directional derivative
        k, i = max(
            ((k, int(np.argmax(np.abs(g * d)))) for k, (g, d) in enumerate(zip(grads, direction))),
            key=lambda ki: abs(grads[ki[0]].flat[ki[1]] * direction[ki[0]].flat[ki[1]]),
        )
        grads[k].flat[i] *= -1.0
        self.assertTrue(checks.directional_gradient(grads, direction, *values, eps))

    def test_reference_caption_with_one_attribute_dropped(self):
        grammar = WORLD.grammar()
        parse = lambda cap: metrics.parse_caption_tuples(cap, grammar)  # noqa: E731
        insts = [types.SimpleNamespace(graph=r["graph"], caption=r["caption"]) for r in self.rows]
        self.assertEqual(checks.reference_counts(insts, parse, NodeRole), [])
        with_attr = next(i for i in insts if any(w in grammar.attr_set for w in i.caption))
        k = next(k for k, w in enumerate(with_attr.caption) if w in grammar.attr_set)
        dropped = types.SimpleNamespace(graph=with_attr.graph, caption=with_attr.caption[:k] + with_attr.caption[k + 1:])
        self.assertTrue(checks.reference_counts([dropped], parse, NodeRole))

    def test_invalid_automatic_graph(self):
        ok = SceneGraph(nodes=(Node(0, NodeRole.OBJECT, 0),), edges=())
        dangling = SceneGraph(nodes=(Node(0, NodeRole.OBJECT, 0), Node(1, NodeRole.ATTRIBUTE, 0)), edges=())
        self.assertEqual(checks.valid_graphs([ok], validate_asg), [])
        self.assertTrue(checks.valid_graphs([ok, dangling], validate_asg))

    def test_diversity_score_outside_unit_interval(self):
        good = types.SimpleNamespace(div1=0.5, div2=1.0, self_cider=None, baseline_div1=0.0,
                                     baseline_div2=0.2, baseline_self_cider=0.3)
        self.assertEqual(checks.diversity_scores(good), [])
        self.assertTrue(checks.diversity_scores(types.SimpleNamespace(**{**vars(good), "div2": 1.0 + 1e-12})))
        self.assertTrue(checks.diversity_scores(types.SimpleNamespace(**{**vars(good), "self_cider": -1e-12})))

    def test_gradcheck_error_and_evaluation_count(self):
        self.assertEqual(checks.gradcheck_result(9.9e-5, 21, 10), [])
        self.assertTrue(checks.gradcheck_result(1e-4, 21, 10))
        self.assertTrue(checks.gradcheck_result(1e-9, 22, 10))

    def test_loss_not_decreased(self):
        self.assertEqual(checks.loss_decreased(2.0, 3.0), [])
        self.assertTrue(checks.loss_decreased(3.0, 3.0))

    def test_step_count_and_repeated_output(self):
        self.assertEqual(checks.step_count(7, 7, "x"), [])
        self.assertTrue(checks.step_count(8, 7, "x"))
        self.assertEqual(checks.same_output([["a"]], [["a"]], "x"), [])
        self.assertTrue(checks.same_output([["a"]], [["b"]], "x"))


class TestTracer(unittest.TestCase):
    def test_counts_decoder_steps_and_restores_originals(self):
        scenes, rows, vocab, model = tiny()
        row = rows[0]
        feats = features_for(scenes[row["scene_id"]], row["graph"], WORLD)
        ids = vocab.encode(row["caption"])
        before = {(id(m), k): v for m in (graphcap.decoder, graphcap.autodiff) for k, v in vars(m).items()}
        step = CaptionModel.step
        tracer = tracing.Tracer(graphcap)
        tracer.install()
        try:
            model.loss(row["graph"], feats, ids)
        finally:
            tracer.uninstall()
        stats = tracer.take()
        self.assertEqual(tracer.absent, [])
        self.assertEqual(stats.calls[tracing.LANGUAGE_STEP], len(ids) + 1)
        self.assertEqual(stats.calls["model.CaptionModel.loss"], 1)
        self.assertEqual(stats.calls["decoder.lstm_step"], 2 * (len(ids) + 1))
        self.assertGreater(stats.prims["decoder.lstm_step"], 0)
        self.assertEqual(sum(stats.ops.values()), sum(stats.prims.values()))
        after = {(id(m), k): v for m in (graphcap.decoder, graphcap.autodiff) for k, v in vars(m).items()}
        self.assertEqual(before, after)
        self.assertIs(CaptionModel.step, step)

    def test_missing_function_reported_absent(self):
        saved = list(tracing.SPANS)
        tracing.SPANS.append(("decoder", "no_such_step", True))
        try:
            tracer = tracing.Tracer(graphcap)
            tracer.install()
            tracer.uninstall()
            values = tracing.layer_metrics(tracer.take(), 0.0)
        finally:
            tracing.SPANS[:] = saved
        self.assertIn("decoder.no_such_step", tracer.absent)
        self.assertEqual(values["decoder.no_such_step.calls"], 0)

    def test_benchmark_json_lists_every_layer_metric(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tracing.layer_metric_specs())


if __name__ == "__main__":
    unittest.main()
