"""Correctness checks on the outputs of the benchmark's workloads.

Every check returns a list of problems (empty when the output is
right), so one run can report all of them.  Each compares an output
with an independent computation or a property it must have; the
self-tests in ``test_checks.py`` feed each check a corrupted output.
"""

from __future__ import annotations

import numpy as np

GRADCHECK_BOUND = 1e-4  # the project's gradcheck bound
BEAM_SCORE_RTOL = 1e-9


def relative_error(a: float, b: float) -> float:
    """The gradcheck convention: |a - b| / max(1, |a|, |b|)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def directional_gradient(grads, direction, loss_plus: float, loss_minus: float, eps: float) -> list[str]:
    """The tape gradient along ``direction`` against the central
    difference (loss(theta + eps d) - loss(theta - eps d)) / 2 eps."""
    analytic = float(sum(np.vdot(g, d) for g, d in zip(grads, direction)))
    numeric = (loss_plus - loss_minus) / (2.0 * eps)
    err = relative_error(analytic, numeric)
    if not err < GRADCHECK_BOUND:
        return [f"directional derivative {analytic:.9g} vs central difference {numeric:.9g}: relative error {err:.2e}"]
    return []


def loss_decreased(trained: float, untrained: float) -> list[str]:
    if not trained < untrained:
        return [f"held-out loss {trained:.4f} of the trained model is not below {untrained:.4f} untrained"]
    return []


def beam_scores(hyps, eos_id: int, summed_nll) -> list[str]:
    """Each hypothesis ending in the end token scores minus the summed
    teacher-forced log-likelihood of its tokens (``summed_nll`` maps the
    caption ids, end token excluded, to that sum)."""
    problems = []
    for hyp in hyps:
        if not hyp.tokens or hyp.tokens[-1] != eos_id:
            continue
        nll = summed_nll(hyp.tokens[:-1])
        if abs(hyp.score + nll) > BEAM_SCORE_RTOL * max(abs(nll), 1e-300):
            problems.append(f"beam score {hyp.score!r} != -{nll!r} for tokens {hyp.tokens}")
    return problems


def graph_counts(graph, role_cls) -> tuple[int, int, int]:
    """(objects, attribute edges, relationship nodes) of a control graph."""
    roles = [n.role for n in graph.nodes]
    attr_edges = sum(
        1
        for s, d in graph.edges
        if roles[s] is role_cls.OBJECT and roles[d] is role_cls.ATTRIBUTE
    )
    return (roles.count(role_cls.OBJECT), attr_edges, roles.count(role_cls.RELATIONSHIP))


def reference_counts(instances, parse, role_cls) -> list[str]:
    """Tuple counts parsed from each reference caption equal the counts
    read off its control graph."""
    problems = []
    for inst in instances:
        parsed = tuple(parse(inst.caption).as_tuple())
        expected = graph_counts(inst.graph, role_cls)
        if parsed != expected:
            problems.append(f"reference {' '.join(inst.caption)!r} parses to {parsed}, graph has {expected}")
    return problems


def valid_graphs(graphs, validate) -> list[str]:
    problems = []
    for g in graphs:
        violations = validate(g)
        if violations:
            problems.append(f"automatic graph invalid: {'; '.join(violations)}")
    return problems


def diversity_scores(result) -> list[str]:
    problems = []
    for name in ("div1", "div2", "self_cider", "baseline_div1", "baseline_div2", "baseline_self_cider"):
        value = getattr(result, name)
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"diversity score {name} = {value!r} outside [0, 1]")
    return problems


def gradcheck_result(max_err: float, evals: int, coords: int) -> list[str]:
    problems = []
    if not max_err < GRADCHECK_BOUND:
        problems.append(f"gradcheck max relative error {max_err:.2e} >= {GRADCHECK_BOUND}")
    if evals != 2 * coords + 1:
        problems.append(f"gradcheck made {evals} loss evaluations, expected 2 x {coords} + 1")
    return problems


def step_count(calls: int, expected: int, what: str) -> list[str]:
    if calls != expected:
        return [f"decoder.language_step ran {calls} times on {what}, expected {expected}"]
    return []


def same_output(first, again, what: str) -> list[str]:
    if first != again:
        return [f"{what}: a repeated pass gave a different output"]
    return []
