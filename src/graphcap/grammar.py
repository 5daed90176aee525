"""Deterministic caption grammar over the synthetic world.

Scenes are described clause by clause.  A relationship triple renders
as ``the [attrs] SUBJ REL the [attrs] OBJ``; an object outside any
triple renders as ``there is a [attrs] CLASS``; clauses join with
``and``.  Attributes appear in the graph's attribute order, and an
object's attributes are rendered only at its first mention, which keeps
caption tuple counts identical to the graph's node-type counts (the
round-trip the evaluation metrics rely on).

The grammar only renders graphs in which each object joins at most one
relationship triple; arbitrary token sequences can still be *parsed*
(see metrics.parse_caption_tuples).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidGraphError, ShapeError
from .graph import NodeRole, SceneGraph
from .jsonio import decoding, read_json

__all__ = ["Vocab", "Grammar", "OBJECT_WORDS", "ATTRIBUTE_WORDS", "RELATION_WORDS"]

OBJECT_WORDS = (
    "ball", "box", "cat", "dog", "tree", "car", "cup", "bird",
    "lamp", "fish", "hat", "book", "chair", "star", "drum", "key",
)
ATTRIBUTE_WORDS = (
    "red", "blue", "green", "small", "big", "shiny",
    "old", "striped", "soft", "dark", "pale", "round",
)
# first four are spatial and must agree with box geometry
RELATION_WORDS = (
    "left-of", "right-of", "above", "below",
    "near", "holds", "touches", "chases",
)
STRUCT_WORDS = ("there", "is", "a", "the", "and")

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    index: dict[str, int]

    @classmethod
    def build(cls, words: list[str]) -> "Vocab":
        tokens = (PAD, BOS, EOS, UNK) + tuple(words)
        return cls(tokens=tokens, index={t: i for i, t in enumerate(tokens)})

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def unk_id(self) -> int:
        return 3

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: list[str]) -> list[int]:
        return [self.index.get(w, self.unk_id) for w in words]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path: str | Path) -> None:
        payload = {
            "tokens": list(self.tokens),
            "specials": {"pad": 0, "bos": 1, "eos": 2, "unk": 3},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """Read ``vocab.json``; raises ``ShapeError`` unless it holds a
        list of token strings."""
        payload = read_json(path)
        with decoding(path):
            tokens = payload["tokens"]
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ShapeError(f"{path}: tokens must be a list of strings")
        return cls(tokens=tuple(tokens), index={t: i for i, t in enumerate(tokens)})


class Grammar:
    """Word inventory sized to a world configuration, plus rendering."""

    def __init__(self, n_object_classes: int, n_attr_classes: int, n_rel_classes: int):
        if n_object_classes > len(OBJECT_WORDS):
            raise ValueError(f"at most {len(OBJECT_WORDS)} object classes supported")
        if n_attr_classes > len(ATTRIBUTE_WORDS):
            raise ValueError(f"at most {len(ATTRIBUTE_WORDS)} attribute classes supported")
        if n_rel_classes > len(RELATION_WORDS):
            raise ValueError(f"at most {len(RELATION_WORDS)} relation classes supported")
        self.object_words = OBJECT_WORDS[:n_object_classes]
        self.attr_words = ATTRIBUTE_WORDS[:n_attr_classes]
        self.rel_words = RELATION_WORDS[:n_rel_classes]
        self.object_set = set(self.object_words)
        self.attr_set = set(self.attr_words)
        self.rel_set = set(self.rel_words)
        self.skippable = {"the", "a"} | self.attr_set

    def build_vocab(self) -> Vocab:
        words = list(STRUCT_WORDS) + list(self.object_words) + list(self.attr_words) + list(self.rel_words)
        return Vocab.build(words)

    # -- rendering ---------------------------------------------------------

    def render_caption(self, scene, g: SceneGraph) -> list[str]:
        """Render a grounded graph.  Deterministic and count-invertible:
        the parsed tuple counts of the output equal the graph's node
        counts per role."""
        triples = g.relationship_triples()
        seen_objects: set[int] = set()
        in_triple = {n for t in triples for n in (t[0], t[2])}
        counted = {}
        for s, r, o in triples:
            counted[s] = counted.get(s, 0) + 1
            counted[o] = counted.get(o, 0) + 1
        if any(c > 1 for c in counted.values()):
            raise InvalidGraphError("grammar renders at most one triple per object")

        clauses: list[tuple[int, list[str]]] = []
        for subj, rel, obj in triples:
            words = ["the"]
            words += self._attr_phrase(scene, g, subj, seen_objects)
            words.append(self._object_word(scene, g, subj))
            seen_objects.add(subj)
            words.append(self._relation_word(scene, g, rel))
            words.append("the")
            words += self._attr_phrase(scene, g, obj, seen_objects)
            words.append(self._object_word(scene, g, obj))
            seen_objects.add(obj)
            clauses.append((rel, words))
        for node in g.nodes:
            if node.role is NodeRole.OBJECT and node.id not in in_triple:
                words = ["there", "is", "a"]
                words += self._attr_phrase(scene, g, node.id, seen_objects)
                words.append(self._object_word(scene, g, node.id))
                seen_objects.add(node.id)
                clauses.append((node.id, words))

        clauses.sort(key=lambda c: c[0])
        out: list[str] = []
        for i, (_, words) in enumerate(clauses):
            if i:
                out.append("and")
            out += words
        if not out:
            raise InvalidGraphError("graph has nothing to describe")
        return out

    def _object_word(self, scene, g: SceneGraph, nid: int) -> str:
        region = g.nodes[nid].region
        if not (0 <= region < len(scene.objects)):
            raise InvalidGraphError(f"object node {nid} region {region} missing from scene")
        return self.object_words[scene.objects[region].cls]

    def _attr_phrase(self, scene, g: SceneGraph, obj_id: int, seen: set[int]) -> list[str]:
        if obj_id in seen:
            return []
        order = g.attribute_order.get(obj_id, ())
        region = g.nodes[obj_id].region
        scene_attrs = scene.objects[region].attrs
        words = []
        for k, _attr_node in enumerate(order):
            if k >= len(scene_attrs):
                raise InvalidGraphError(
                    f"object node {obj_id} asks for attribute {k}, scene object has {len(scene_attrs)}"
                )
            words.append(self.attr_words[scene_attrs[k]])
        return words

    def _relation_word(self, scene, g: SceneGraph, rid: int) -> str:
        region = g.nodes[rid].region
        if not (0 <= region < len(scene.relations)):
            raise InvalidGraphError(f"relationship node {rid} region {region} missing from scene")
        return self.rel_words[scene.relations[region][1]]
