"""Dense float64 tensors with reverse-mode differentiation.

Every learned computation in the package is expressed through the small
primitive set defined here.  Forward execution is eager numpy; when a
recording tape is active, each primitive appends an entry with its
adjoint rule, and :func:`backward` walks the tape in reverse to
accumulate exact gradients into leaf tensors.

Design points:

* float64 everywhere; non-finite values are an error state.  The ops
  that can create them from sane finite inputs (div, log) raise
  :class:`NumericError` immediately; the training loop guards the rest
  by aborting on a non-finite loss.
* Gradients accumulate across backward calls; callers zero them
  explicitly between optimization steps (see :func:`zero_grads`).
* Tensors are value-like.  A tape and the tensors flowing through it
  belong to one forward/backward pass; independent passes on disjoint
  data may run concurrently, because the active tape is held per thread
  (and per asyncio task) in a context variable.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "tensor",
    "parameter",
    "record",
    "backward",
    "zero_grads",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "smul",
    "concat",
    "tslice",
    "lookup",
    "tanh",
    "sigmoid",
    "relu",
    "softmax",
    "log",
    "tsum",
    "tmean",
    "reshape",
]


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return smul(self, -1.0)


def tensor(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Entry:
    """One executed primitive: its inputs, its output and its adjoint rule."""

    __slots__ = ("inputs", "out", "bwd")

    def __init__(self, inputs, out, bwd):
        self.inputs = inputs
        self.out = out
        self.bwd = bwd  # (g: ndarray) -> tuple of input adjoints (None entries allowed)


class Tape:
    """Ordered record of executed primitives (topological by construction).

    Each entry's output is a tensor freshly created by that primitive.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[_Entry] = []

    def __len__(self) -> int:
        return len(self.entries)


_CURRENT_TAPE: ContextVar[Tape | None] = ContextVar("graphcap_current_tape", default=None)


class record:
    """Context manager activating a fresh tape: ``with record() as tape:``."""

    def __init__(self):
        self.tape = Tape()

    def __enter__(self) -> Tape:
        self._token = _CURRENT_TAPE.set(self.tape)
        return self.tape

    def __exit__(self, *exc):
        _CURRENT_TAPE.reset(self._token)
        return False


def _finite_or_raise(arr: np.ndarray, opname: str) -> None:
    # sum() is NaN/Inf iff the array contains one (cheaper than isfinite().all()
    # on the small arrays this package uses; overflow-to-inf of the sum itself
    # would only occur for magnitudes ~1e308, also an error state here)
    if not math.isfinite(np.add.reduce(arr, axis=None)):
        raise NumericError(f"{opname} produced a non-finite value")


def _emit(opname, inputs, out_data, bwd) -> Tensor:
    # div and log are the ops that create non-finite values from sane
    # finite inputs, so they are always scanned; the bounded and
    # value-preserving primitives skip the scan, and overflow of the
    # remaining ops (possible only near 1e308) surfaces at the loss
    if opname in _CHECKED_OPS:
        _finite_or_raise(out_data, opname)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out.grad = None
    out.name = ""
    tape = _CURRENT_TAPE.get()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                tape.entries.append(_Entry(inputs, out, bwd))
                break
    return out


_CHECKED_OPS = frozenset({"div", "log"})


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul needs 1D/2D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            if bd.ndim == 1 and ad.ndim == 1:
                ga = g * b.data
            elif ad.ndim == 2 and bd.ndim == 2:
                ga = g @ b.data.T
            elif ad.ndim == 1:  # 1D @ 2D
                ga = b.data @ g
            else:  # 2D @ 1D
                ga = np.outer(g, b.data)
        if b.requires_grad:
            if bd.ndim == 1 and ad.ndim == 1:
                gb = g * a.data
            elif ad.ndim == 2 and bd.ndim == 2:
                gb = a.data.T @ g
            elif ad.ndim == 1:  # 1D @ 2D
                gb = np.outer(a.data, g)
            else:  # 2D @ 1D
                gb = a.data.T @ g
        return ga, gb

    return _emit("matmul", (a, b), ad @ bd, bwd)


def _ewise(opname, a, b, fn, bwd_fn):
    try:
        out = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{opname}: {exc}") from exc
    return _emit(opname, (a, b), out, bwd_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _ewise("add", a, b, np.add, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return _ewise("sub", a, b, np.subtract, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _ewise("mul", a, b, np.multiply, bwd)


def _div_raw(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
            if b.requires_grad
            else None,
        )

    return _ewise("div", a, b, _div_raw, bwd)


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _emit("smul", (a,), a.data * c, bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    datas = [p.data for p in parts]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from exc
    offsets = [0]
    for d in datas:
        offsets.append(offsets[-1] + d.shape[axis])

    def bwd(g):
        gs = []
        for i, p in enumerate(parts):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                gs.append(g[tuple(sl)])
            else:
                gs.append(None)
        return tuple(gs)

    return _emit("concat", tuple(parts), out, bwd)


def tslice(a: Tensor, key) -> Tensor:
    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _emit("slice", (a,), np.ascontiguousarray(a.data[key]), bwd)


def lookup(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError("lookup table must be 2D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError("lookup index out of range")

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _emit("lookup", (table,), table.data[idx], bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _emit("tanh", (a,), out, bwd)


try:  # single C ufunc when scipy is around; the fallback is equally stable
    from scipy.special import expit as _sigmoid_raw
except ImportError:  # pragma: no cover

    def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
        ex = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_raw(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _emit("sigmoid", (a,), out, bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0),)

    return _emit("relu", (a,), out, bwd)


def _softmax_raw(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    out = _softmax_raw(a.data)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit("softmax", (a,), out, bwd)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(a.data)
        except FloatingPointError as exc:
            raise NumericError(f"log of non-positive value: {exc}") from exc

    def bwd(g):
        return (g / a.data,)

    return _emit("log", (a,), out, bwd)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return _emit("sum", (a,), np.asarray(out), bwd)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy(),)

    return _emit("mean", (a,), np.asarray(out), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _emit("reshape", (a,), a.data.reshape(shape).copy(), bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dloss/dx into ``grad`` of every requires_grad leaf.

    Leaves unreachable from the loss keep their ``grad`` buffers as they
    were.  Repeated calls without zeroing accumulate, supporting
    multi-sample batches.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    produced = {id(e.out) for e in tape.entries}
    if id(loss) not in produced and not loss.requires_grad:
        raise ShapeError("loss is not reachable from the recorded tape")

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    for entry in reversed(tape.entries):
        g = adjoint.pop(id(entry.out), None)
        if g is None:
            continue
        grads = entry.bwd(g)
        for t, gt in zip(entry.inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            tid = id(t)
            if tid in produced:
                if tid in adjoint:
                    adjoint[tid] = adjoint[tid] + gt
                else:
                    adjoint[tid] = gt
            else:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += gt


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad.fill(0.0)
