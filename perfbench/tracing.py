"""Outside-in per-layer tracing of the graphcap package.

The tracer wraps the package's public functions from outside: each
function listed in ``SPANS`` is replaced, in every graphcap module that
holds a reference to it, by a wrapper that records a span (calls, self
time, and the time its callers see).  The public primitives of
``graphcap.autodiff`` are wrapped by counters that charge each call to
the innermost open span.  ``uninstall`` puts every original back.  The
program's source is not touched, and a function that no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

# (module, qualified name, count primitives charged to it)
SPANS = [
    ("autodiff", "backward", False),
    ("encoder", "encode", True),
    ("encoder", "role_embed", True),
    ("encoder", "mrgcn_layer", True),
    ("decoder", "attention_query_step", True),
    ("decoder", "content_attention", True),
    ("decoder", "flow_attention", True),
    ("decoder", "fuse_and_context", True),
    ("decoder", "language_step", True),
    ("decoder", "graph_update", True),
    ("decoder", "lstm_step", True),
    ("decoder", "beam_search", False),
    ("model", "CaptionModel.prepare", True),
    ("model", "CaptionModel.step", True),
    ("model", "CaptionModel.loss", True),
    ("graph", "build_flow", False),
    ("graph", "sample_subgraph", False),
    ("graph", "validate_asg", False),
    ("optim", "adam_step", False),
    ("training", "train", False),
    ("training", "Checkpoint.save", False),
    ("training", "Checkpoint.load", False),
    ("evaluation", "evaluate_control", False),
    ("evaluation", "evaluate_diversity", False),
    ("metrics", "graph_structure_metric", False),
    ("metrics", "parse_caption_tuples", False),
    ("metrics", "ngram_overlap_metrics", False),
    ("metrics", "cider_d", False),
    ("metrics", "div_n", False),
    ("metrics", "self_cider", False),
    ("autoasg", "train_relation_classifier", True),
    ("autoasg", "jitter_proposals", False),
    ("autoasg", "soft_nms", False),
    ("autoasg", "auto_generate_asg", True),
    ("worldgen", "gen_dataset", False),
    ("worldgen", "features_for", False),
    ("gradcheck", "grad_check", False),
]

PRIMITIVES = [
    "matmul", "add", "sub", "mul", "div", "smul", "concat", "tslice", "lookup",
    "tanh", "sigmoid", "relu", "softmax", "log", "tsum", "tmean", "reshape",
]

DECODER_STEP_SPANS = [
    f"decoder.{name}"
    for name in (
        "attention_query_step", "content_attention", "flow_attention",
        "fuse_and_context", "language_step", "graph_update", "lstm_step",
    )
]

TRAIN = "training.train"
LOSS = "model.CaptionModel.loss"
BACKWARD = "autodiff.backward"
ADAM = "optim.adam_step"
PREPARE = "model.CaptionModel.prepare"
BUILD_FLOW = "graph.build_flow"
LANGUAGE_STEP = "decoder.language_step"


def layer_metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    specs = []
    for module, qualname, with_prims in SPANS:
        name = f"{module}.{qualname}"
        specs.append((f"{name}.self_s", "s"))
        specs.append((f"{name}.calls", "count"))
        if with_prims:
            specs.append((f"{name}.primitives", "count"))
    specs += [(f"autodiff.{op}.calls", "count") for op in PRIMITIVES]
    specs += [
        ("autodiff.primitives_per_step", "count"),
        ("autodiff.tape_entries_per_instance", "count"),
        ("model.structure_cache_hit_ratio", "ratio"),
        ("training.forward_s", "s"),
        ("training.backward_s", "s"),
        ("training.optimizer_s", "s"),
        ("training.other_s", "s"),
        ("tracing_overhead_s", "s"),
    ]
    return specs


class Stats:
    """Counters of one stretch of traced work; ``add`` sums stretches
    with a weight (to express them per pass)."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.prims = Counter()
        self.incl = defaultdict(float)  # (parent span or None, span) -> seconds
        self.pair_calls = Counter()  # (parent span or None, span) -> calls
        self.ops = Counter()
        self.tape_entries = 0
        self.taped_instances = 0

    def add(self, other: "Stats", weight: float = 1.0) -> None:
        for attr in ("calls", "self_s", "prims", "incl", "pair_calls", "ops"):
            mine = getattr(self, attr)
            for k, v in getattr(other, attr).items():
                mine[k] += v * weight
        self.tape_entries += other.tape_entries * weight
        self.taped_instances += other.taped_instances * weight


def _resolve(pkg, module: str, qualname: str):
    """(owner, attribute, static value) of a canonical name, or None."""
    try:
        owner = importlib.import_module(f"{pkg.__name__}.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        value = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, value


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.stats = Stats()
        self._stack: list[list] = []  # [span name, child seconds, primitives]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]

    def take(self) -> Stats:
        """Return the counters gathered so far and start afresh."""
        out, self.stats = self.stats, Stats()
        return out

    @contextlib.contextmanager
    def excluded(self):
        """Leave out of the counters what runs inside (the checks)."""
        kept = self.stats
        self.stats = Stats()
        try:
            yield
        finally:
            self.stats = kept

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        taped = name == BACKWARD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if taped and any(frame[0] == TRAIN for frame in stack):
                tracer.stats.tape_entries += len(args[0])
                tracer.stats.taped_instances += 1
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats = tracer.stats
                stats.calls[name] += 1
                stats.self_s[name] += dt - frame[1]
                stats.prims[name] += frame[2]
                parent = stack[-1] if stack else None
                pair = (parent[0] if parent else None, name)
                stats.incl[pair] += dt
                stats.pair_calls[pair] += 1
                if parent:
                    parent[1] += dt

        return wrapper

    def _counter(self, op: str, fn):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.stats.ops[op] += 1
            if stack:
                stack[-1][2] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        """Rebind every module-level reference to ``fn`` (the defining
        module and every module that imported the name)."""
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        self.absent = []
        for module, qualname, _ in SPANS:
            name = f"{module}.{qualname}"
            found = _resolve(self.pkg, module, qualname)
            if found is None or not callable(getattr(found[0], found[1])):
                self.absent.append(name)
                continue
            owner, attr, value = found
            if inspect.ismodule(owner):
                self._patch_everywhere(value, self._span(name, value))
            elif isinstance(value, classmethod):
                self._patch(owner, attr, classmethod(self._span(name, value.__func__)))
            else:
                self._patch(owner, attr, self._span(name, value))
        ad = importlib.import_module(f"{self.pkg.__name__}.autodiff")
        for op in PRIMITIVES:
            fn = getattr(ad, op, None)
            if fn is None:
                self.absent.append(f"autodiff.{op}")
                continue
            self._patch_everywhere(fn, self._counter(op, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def layer_metrics(stats: Stats, overhead_s: float) -> dict[str, float]:
    """Per-layer figures from counters already expressed per round."""
    out: dict[str, float] = {}
    for module, qualname, with_prims in SPANS:
        name = f"{module}.{qualname}"
        out[f"{name}.self_s"] = stats.self_s.get(name, 0.0)
        out[f"{name}.calls"] = stats.calls.get(name, 0)
        if with_prims:
            out[f"{name}.primitives"] = stats.prims.get(name, 0)
    for op in PRIMITIVES:
        out[f"autodiff.{op}.calls"] = stats.ops.get(op, 0)
    steps = stats.calls.get(LANGUAGE_STEP, 0)
    step_prims = sum(stats.prims.get(n, 0) for n in DECODER_STEP_SPANS)
    out["autodiff.primitives_per_step"] = step_prims / steps if steps else 0.0
    out["autodiff.tape_entries_per_instance"] = (
        stats.tape_entries / stats.taped_instances if stats.taped_instances else 0.0
    )
    prepares = stats.calls.get(PREPARE, 0)
    flows = stats.pair_calls.get((PREPARE, BUILD_FLOW), 0)
    out["model.structure_cache_hit_ratio"] = 1.0 - flows / prepares if prepares else 0.0
    train_s = sum(v for (_, name), v in stats.incl.items() if name == TRAIN)
    forward = stats.incl.get((TRAIN, LOSS), 0.0)
    backward = stats.incl.get((TRAIN, BACKWARD), 0.0)
    optimizer = stats.incl.get((TRAIN, ADAM), 0.0)
    out["training.forward_s"] = forward
    out["training.backward_s"] = backward
    out["training.optimizer_s"] = optimizer
    out["training.other_s"] = train_s - forward - backward - optimizer
    out["tracing_overhead_s"] = overhead_s
    return out
