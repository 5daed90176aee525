"""Training loop and checkpointing.

Training is plain teacher forcing: per-token cross entropy accumulated
over a shuffled mini-batch, one Adam step per batch, gradients zeroed
explicitly between batches.  Everything is seeded, so a run is a pure
function of (config, dataset).

A checkpoint is a directory: ``manifest.json`` (the ordered list of
``{"name", "shape"}`` of every parameter), ``weights.bin`` (their
row-major little-endian float64 buffers concatenated in manifest
order), ``train_config.json``, ``vocab.json`` and ``world.json``, the
world config of the training data, from which features for the model
are built.  Reloading reproduces bit-identical forward passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError
from .grammar import Vocab
from .graph import SceneGraph
from .jsonio import read_json
from .model import CaptionModel, ModelConfig
from .optim import OptimizerState, adam_step
from .worldgen import Scene, WorldConfig, features_for, read_world

__all__ = ["TrainConfig", "Checkpoint", "train", "Dataset", "Instance"]


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """Model switches (inherited from ``ModelConfig``) plus the training
    and decoding settings.  ``beam`` is the decode width; 1 is greedy."""

    lr: float = 2e-3
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    max_len: int = 20
    beam: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.batch_size < 1 or self.max_len < 1 or self.beam < 1:
            raise ShapeError("train config numerics must be positive")
        if self.lr <= 0 or self.epochs < 0:
            raise ShapeError("bad learning rate or epoch count")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    @classmethod
    def from_json(cls, obj: dict) -> "TrainConfig":
        """Rebuild from ``train_config.json``.  Older files also carry
        ``use_beam_search``; false there means greedy, i.e. ``beam=1``."""
        try:
            obj = dict(obj)
            if obj.pop("use_beam_search", True) is False:
                obj["beam"] = 1
            return cls(**obj)
        except TypeError as exc:
            raise ShapeError(f"bad train config: {exc}") from None


@dataclass
class Instance:
    """One training/evaluation row resolved against its scene."""

    scene_id: int
    graph: SceneGraph
    caption: list[str]


@dataclass
class Dataset:
    world: WorldConfig
    scenes: list[Scene]
    instances: list[Instance]
    vocab: Vocab

    def features(self, inst: Instance):
        return features_for(self.scenes[inst.scene_id], inst.graph, self.world)


def _manifest(named_params) -> list[dict]:
    return [{"name": n, "shape": list(t.data.shape)} for n, t in named_params]


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab: Vocab
    model: CaptionModel
    world: WorldConfig | None = None  # None for a checkpoint saved without world.json

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        named = self.model.named_parameters()
        with open(directory / "manifest.json", "w") as fh:
            json.dump(_manifest(named), fh, indent=1)
        with open(directory / "weights.bin", "wb") as fh:
            for _, t in named:
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        with open(directory / "train_config.json", "w") as fh:
            json.dump(asdict(self.config), fh, indent=1)
        self.vocab.save(directory / "vocab.json")
        if self.world is not None:
            with open(directory / "world.json", "w") as fh:
                json.dump(asdict(self.world), fh, indent=1)

    @classmethod
    def load(cls, directory: str | Path) -> "Checkpoint":
        """Rebuild the model of ``train_config.json`` and fill it from the
        weights; raises ``ShapeError`` unless the manifest lists exactly
        the model's parameters and ``weights.bin`` holds exactly their
        values, or when ``world.json``, if present, is not a valid world
        config."""
        directory = Path(directory)
        config = TrainConfig.from_json(read_json(directory / "train_config.json"))
        vocab = Vocab.load(directory / "vocab.json")
        model = CaptionModel(config.model_config(), vocab, seed=config.seed)
        named = model.named_parameters()
        if read_json(directory / "manifest.json") != _manifest(named):
            raise ShapeError(f"{directory / 'manifest.json'} does not list this model's parameters")
        raw = (directory / "weights.bin").read_bytes()
        expected = 8 * sum(t.data.size for _, t in named)
        if len(raw) != expected:
            raise ShapeError(f"weights.bin holds {len(raw)} bytes, the manifest needs {expected}")
        flat = np.frombuffer(raw, dtype="<f8")
        offset = 0
        for _, t in named:
            n = t.data.size
            t.data = flat[offset : offset + n].astype(np.float64).reshape(t.data.shape)
            offset += n
        world_path = directory / "world.json"
        world = read_world(world_path) if world_path.exists() else None
        return cls(config=config, vocab=vocab, model=model, world=world)


def train(
    cfg: TrainConfig,
    dataset: Dataset,
    log=None,
) -> tuple[Checkpoint, list[float]]:
    """Returns the trained checkpoint and the per-epoch mean loss curve
    (nats per token)."""
    if not dataset.instances:
        raise ShapeError("empty dataset")
    model = CaptionModel(cfg.model_config(), dataset.vocab, seed=cfg.seed)
    params = model.parameters()
    opt = OptimizerState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    encoded = [
        (inst.graph, dataset.features(inst), dataset.vocab.encode(inst.caption))
        for inst in dataset.instances
    ]
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(encoded))
        epoch_nats = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ad.zero_grads(params)
            batch_nats = 0.0
            for idx in batch:
                g, feats, ids = encoded[idx]
                with ad.record() as tape:
                    loss, n_tok = model.loss(g, feats, ids)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(f"training diverged at epoch {epoch}: loss {value}")
                ad.backward(tape, loss)
                batch_nats += value * n_tok
                epoch_nats += value * n_tok
                epoch_tokens += n_tok
            scale = 1.0 / len(batch)
            grads = [p.grad * scale for p in params]
            adam_step(opt, params, grads)
        curve.append(epoch_nats / max(1, epoch_tokens))
        if log:
            log(f"epoch {epoch + 1}/{cfg.epochs}: {curve[-1]:.4f} nats/token")
    return Checkpoint(config=cfg, vocab=dataset.vocab, model=model, world=dataset.world), curve
