"""Dense float64 tensors with reverse-mode differentiation.

Every learned computation in the package is expressed through the small
primitive set defined here, plus the fused sub-module primitives that
the encoder and decoder record through :func:`primitive` (one tape
entry per LSTM cell, attention, graph update or relational layer, with
a hand-written adjoint).  Forward execution is eager numpy; when a
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
* Weight adjoints are deferred.  An adjoint may return, for an input,
  a dense array, a factor pair ``(x, g)`` standing for ``x.T @ g``
  (``np.outer(x, g)`` for 1-D factors; the leading axes of factors
  with more than two are flattened into rows), or :class:`Rows` (an adjoint
  that is zero outside the rows of one index).  :func:`backward`
  collects the adjoints of every tensor the same way: it stacks the
  factor rows the tensor receives and adds one ``X.T @ G`` product,
  the sum of its dense adjoints and its row scatters once (the
  per-step weight GEMMs batched across time, as Appleyard et al.,
  arXiv 1604.01946, do for the forward).  A leaf's sum goes into its
  ``grad`` when the pass ends; a tensor the tape made is resolved when
  the walk reaches its producer.
* :func:`mean_nll` is the training loss: the mean negative log of
  picked probabilities, one tape entry for a whole caption.
* There is one sigmoid, ``0.5 + 0.5 * np.tanh(0.5 * x)``, so a run
  computes the same bits whatever optional packages are installed.
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
    "primitive",
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
    "mean_nll",
    "Rows",
]


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class _Entry:
    """One executed primitive: its inputs, its output (a tuple of tensors
    for a multi-output primitive) and its adjoint rule."""

    __slots__ = ("inputs", "out", "bwd")

    def __init__(self, inputs, out, bwd):
        self.inputs = inputs
        self.out = out
        self.bwd = bwd  # (*output adjoints) -> tuple of input adjoints (None entries allowed)


class Tape:
    """Ordered record of executed primitives (topological by construction).

    Each entry's outputs are tensors freshly created by that primitive.
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


def _fresh(data: np.ndarray, requires_grad: bool) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    return out


def primitive(inputs: Sequence[Tensor], outputs, bwd):
    """Record one primitive computed by the caller.

    ``outputs`` is the forward result: one array, or a tuple of arrays
    for a multi-output primitive, which then returns a tuple of
    tensors.  ``bwd`` receives one adjoint per output, in order, with
    zeros for an output that does not reach the loss, and returns one
    adjoint (or None) per input: an array, a factor pair ``(x, g)`` or
    :class:`Rows` (see the module docstring).
    """
    tape = _CURRENT_TAPE.get()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                break
        else:
            tape = None
    grad = tape is not None
    if type(outputs) is tuple:
        out = tuple([_fresh(o, grad) for o in outputs])
    else:
        out = _fresh(outputs, grad)
    if grad:
        tape.entries.append(_Entry(inputs, out, bwd))
    return out


class Rows:
    """A deferred adjoint that is ``g`` at ``a[key]`` and zero elsewhere,
    for an input ``a`` read through a basic index or an integer array of
    rows (embedding rows).  A row the key repeats gets the sum of its
    adjoints."""

    __slots__ = ("key", "g")

    def __init__(self, key, g: np.ndarray):
        self.key = key
        self.g = g


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
    """``a @ b`` for a 1-D or 2-D ``a`` and a 2-D ``b``."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim != 2:
        raise ShapeError(f"matmul needs a 1D/2D operand at a 2D one, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = g @ bd.T if ad.ndim == 2 else bd @ g
        if b.requires_grad:  # a.T @ g, deferred
            gb = (ad, g)
        return ga, gb

    return primitive((a, b), ad @ bd, bwd)


def _ewise(opname, a, b, fn) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{opname}: {exc}") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return primitive((a, b), _ewise("add", a, b, np.add), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return primitive((a, b), _ewise("sub", a, b, np.subtract), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return primitive((a, b), _ewise("mul", a, b, np.multiply), bwd)


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

    out = _ewise("div", a, b, _div_raw)
    _finite_or_raise(out, "div")
    return primitive((a, b), out, bwd)


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return primitive((a,), a.data * c, bwd)


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

    return primitive(tuple(parts), out, bwd)


def tslice(a: Tensor, key) -> Tensor:
    """``a[key]`` for a basic index (an int, slices, or a tuple of them)
    or an integer array of rows, which may repeat a row."""

    def bwd(g):
        return (Rows(key, g),)

    return primitive((a,), np.ascontiguousarray(a.data[key]), bwd)


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

    return primitive((table,), table.data[idx], bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return primitive((a,), out, bwd)


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    """The package's one sigmoid, numpy-only and stable for any finite x."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_raw(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return primitive((a,), out, bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0),)

    return primitive((a,), out, bwd)


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

    return primitive((a,), out, bwd)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            out = np.log(a.data)
        except FloatingPointError as exc:
            raise NumericError(f"log of non-positive value: {exc}") from exc
    _finite_or_raise(out, "log")

    def bwd(g):
        return (g / a.data,)

    return primitive((a,), out, bwd)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy(),)

    return primitive((a,), np.asarray(out), bwd)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.data.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy(),)

    return primitive((a,), np.asarray(out), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g):
        return (g.reshape(a.data.shape),)

    return primitive((a,), a.data.reshape(shape).copy(), bwd)


def mean_nll(probs: Sequence[Tensor], targets: Sequence) -> Tensor:
    """Mean of ``-log p`` over the picked probabilities, as one primitive:
    ``targets[k]`` indexes the last axis of ``probs[k]`` (an int for a
    distribution of shape (V,), an int array of shape (n,) for one of
    shape (n, V)).  A picked probability of zero raises NumericError."""
    if not probs or len(probs) != len(targets):
        raise ShapeError(f"{len(probs)} distributions for {len(targets)} targets")
    flat = []  # per distribution, the flat indices of its picks
    parts = []
    for p, t in zip(probs, targets):
        t = np.asarray(t, dtype=np.intp).reshape(-1)
        vocab = p.data.shape[-1]
        if t.size and (t.min() < 0 or t.max() >= vocab):
            raise ShapeError(f"target out of range for {vocab} classes")
        flat.append(np.arange(t.size) * vocab + t)
        parts.append(p.data.reshape(-1)[flat[-1]])
    picked = np.concatenate(parts)
    if not picked.size:
        raise ShapeError("mean_nll needs at least one target")
    if not picked.min() > 0.0:
        raise NumericError("log of non-positive picked probability")
    scale = -1.0 / picked.size
    out = np.asarray(np.log(picked).sum() * scale)

    def bwd(g):
        grads = []
        for p, idx, part in zip(probs, flat, parts):
            gp = np.zeros(p.data.size)
            gp[idx] = g * scale / part
            grads.append(gp.reshape(p.data.shape))
        return tuple(grads)

    return primitive(tuple(probs), out, bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dloss/dx into ``grad`` of every requires_grad leaf.

    Each leaf's ``grad`` is updated once, when the pass ends, with the
    sum of everything the pass sent it (see the module docstring for
    the deferred forms).  Leaves unreachable from the loss keep their
    ``grad`` buffers as they were.  Repeated calls without zeroing
    accumulate, supporting multi-sample batches.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ShapeError("loss is not reachable from the recorded tape")
    # tensor id -> [tensor, dense sum or None, factor xs, factor gs, Rows]
    acc: dict[int, list] = {id(loss): [loss, np.ones_like(loss.data), [], [], []]}

    for entry in reversed(tape.entries):
        out = entry.out
        outs = out if type(out) is tuple else (out,)
        pending = [acc.pop(id(o), None) for o in outs]
        if not any(pending):
            continue
        grads = entry.bwd(
            *[np.zeros_like(o.data) if a is None else _resolve(a) for o, a in zip(outs, pending)]
        )
        for t, gt in zip(entry.inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            a = acc.get(id(t))
            if a is None:
                a = acc[id(t)] = [t, None, [], [], []]
            kind = type(gt)
            if kind is tuple:
                a[2].append(gt[0])
                a[3].append(gt[1])
            elif kind is Rows:
                a[4].append(gt)
            else:
                a[1] = gt if a[1] is None else a[1] + gt

    for a in acc.values():  # what is left belongs to leaves
        t = a[0]
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        _resolve(a, t.grad)


def _resolve(a: list, into: np.ndarray | None = None) -> np.ndarray:
    """An accumulator as one array: added to ``into`` when given, else
    its dense sum as-is when nothing was deferred."""
    t, dense, xs, gs, rows = a
    if into is None:
        if not xs and not rows:
            return dense
        into = np.zeros_like(t.data)
    if dense is not None:
        into += dense
    if xs:
        into += _factor_product(xs, gs).reshape(into.shape)
    for r in rows:
        np.add.at(into, r.key, r.g)
    return into


def _factor_product(xs: list, gs: list) -> np.ndarray:
    """sum_k xs[k].T @ gs[k] as one GEMM over the stacked rows."""
    if len(xs) == 1:
        x, g = xs[0], gs[0]
        if x.ndim == 1:
            return np.outer(x, g)
        if x.ndim == 2:
            return x.T @ g
    return _stack_rows(xs).T @ _stack_rows(gs)


def _stack_rows(arrs: list) -> np.ndarray:
    """Stack 1-D rows and blocks of rows into one 2-D array; a block's
    leading axes (batch rows, slots) are flattened into rows."""
    return np.concatenate([a if a.ndim == 2 else a.reshape(-1, a.shape[-1]) for a in arrs])


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad.fill(0.0)
