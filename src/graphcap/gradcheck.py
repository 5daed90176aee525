"""Gradient verification against central finite differences.

The check is the independent oracle for every analytic adjoint in the
package: it perturbs each parameter coordinate by +/-eps, re-evaluates
the loss without recording, and compares the symmetric difference
quotient with the recorded gradient.  Functions passed in must be
deterministic and differentiable at the evaluation point (kinks such as
|x| at 0 are excluded by contract).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import autodiff as ad
from .errors import NumericError, ShapeError

__all__ = ["grad_check"]


def grad_check(
    f: Callable[[], ad.Tensor],
    params: Sequence[ad.Tensor],
    eps: float = 1e-5,
) -> float:
    """Return the max relative error between analytic and numeric grads.

    ``f`` evaluates the scalar loss from the current values of
    ``params`` (closing over them).  The relative error per coordinate
    is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (0.0 < eps <= 1e-3):
        raise ShapeError(f"eps must be in (0, 1e-3], got {eps}")

    ad.zero_grads(params)
    with ad.record() as tape:
        loss = f()
    if loss.data.size != 1:
        raise ShapeError("grad_check target must be scalar")
    ad.backward(tape, loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f().data)
            flat[i] = orig - eps
            lo = float(f().data)
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError("objective non-finite at perturbed point")
            num = (hi - lo) / (2.0 * eps)
            a = gflat[i]
            rel = abs(a - num) / max(1.0, abs(a), abs(num))
            if rel > worst:
                worst = rel
    return worst
