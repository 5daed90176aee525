"""Bad input files end in a GraphCapError (exit status 2 at the command
line), never in a traceback: one test per JSON loader, a fuzz test of
the loaders over cut-short bytes, wrong types and missing keys, and the
dangling relationship node of ``features_for``."""

import copy
import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphcap.cli import _load_dataset, _load_scene_file, main
from graphcap.errors import GraphCapError, InvalidGraphError, ShapeError
from graphcap.grammar import Vocab
from graphcap.graph import Node, NodeRole, SceneGraph, asg_from_json, asg_to_json
from graphcap.worldgen import (
    WorldConfig,
    features_for,
    gen_dataset,
    load_scenes,
    scene_from_json,
    scene_to_json,
)

WORLD = WorldConfig(dim=6, n_object_classes=3, n_attr_classes=3, n_rel_classes=3, max_objects=3)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "world.json").write_text(json.dumps(asdict(WORLD)))
    assert main(["gen-data", "--config", str(root / "world.json"), "--out", str(root / "data"), "--count", "4"]) == 0
    return root / "data"


def _lines(path):
    return path.read_text().splitlines()


def _exits_2(argv, capsys):
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


class TestEachLoader:
    def test_cut_short_vocab(self, data_dir, tmp_path):
        (tmp_path / "vocab.json").write_text((data_dir / "vocab.json").read_text()[:-5])
        with pytest.raises(ShapeError):
            Vocab.load(tmp_path / "vocab.json")

    def test_malformed_triplets_line_exits_2(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "data"
        bad.mkdir()
        for name in ("world.json", "scenes.jsonl", "vocab.json"):
            (bad / name).write_bytes((data_dir / name).read_bytes())
        lines = _lines(data_dir / "triplets.jsonl")
        (bad / "triplets.jsonl").write_text("\n".join(lines[:1] + [lines[1][:-3]] + lines[2:]))
        with pytest.raises(ShapeError, match="line 2"):
            _load_dataset(bad)
        _exits_2(["train", "--data", bad, "--out", tmp_path / "ckpt", "--dim", 6], capsys)

    def test_malformed_scenes_line(self, data_dir, tmp_path):
        lines = _lines(data_dir / "scenes.jsonl")
        (tmp_path / "scenes.jsonl").write_text("\n".join([lines[0], "{\"objects\": ["]))
        with pytest.raises(ShapeError, match="line 2"):
            load_scenes(tmp_path / "scenes.jsonl")

    def test_malformed_scene_file_exits_2(self, data_dir, tmp_path, capsys):
        (tmp_path / "scene.json").write_text(_lines(data_dir / "scenes.jsonl")[0][:-2])
        with pytest.raises(ShapeError):
            _load_scene_file(tmp_path / "scene.json")
        _exits_2(["sample-asg", "--scene", tmp_path / "scene.json"], capsys)

    def test_unreadable_scene_path_exits_2(self, tmp_path, capsys):
        _exits_2(["sample-asg", "--scene", tmp_path], capsys)  # a directory

    @pytest.mark.parametrize("clf_scenes", [0, 1])
    def test_classifier_without_examples_of_a_class_exits_2(self, data_dir, tmp_path, capsys, clf_scenes):
        (tmp_path / "scene.json").write_text(_lines(data_dir / "scenes.jsonl")[0])
        _exits_2([
            "sample-asg", "--scene", tmp_path / "scene.json", "--mode", "auto",
            "--world", data_dir / "world.json", "--clf-scenes", clf_scenes,
        ], capsys)

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_asg_missing_key(self, key):
        obj = {"nodes": [{"id": 0, "role": "object", "region": 0}], "edges": []}
        del obj[key]
        with pytest.raises(ShapeError):
            asg_from_json(obj)

    @pytest.mark.parametrize("key", ["objects", "relations", "seed"])
    def test_scene_missing_key(self, data_dir, key):
        obj = json.loads(_lines(data_dir / "scenes.jsonl")[0])
        del obj[key]
        with pytest.raises(ShapeError):
            scene_from_json(obj)


def test_features_for_relationship_without_region_or_triple(data_dir):
    scene = load_scenes(data_dir / "scenes.jsonl")[0]
    nodes = (Node(0, NodeRole.OBJECT, 0), Node(1, NodeRole.RELATIONSHIP, -1))
    graph = SceneGraph(nodes=nodes, edges=((0, 1),))
    with pytest.raises(InvalidGraphError):
        features_for(scene, graph, WORLD)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _broken(data, doc) -> bytes:
    """``doc`` with one value replaced by another JSON value or one key
    deleted, or the bytes of ``doc`` cut short."""
    how = data.draw(st.sampled_from(["cut", "retype", "drop"]))
    if how == "cut":
        raw = json.dumps(doc).encode()
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = data.draw(JSON_VALUES)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return json.dumps(doc).encode()


_SCENES, _ROWS = gen_dataset(WORLD, 4, seed=3)
SCENE_DOC = scene_to_json(_SCENES[0])
ASG_DOC = asg_to_json(_ROWS[0]["graph"])


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _loads_or_graphcap_error(load):
    try:
        load()
    except GraphCapError:
        pass


class TestFuzzLoaders:
    @FUZZ
    @given(st.data())
    def test_vocab(self, tmp_path, data):
        doc = {"tokens": list(Vocab.build(["aa", "bb"]).tokens), "specials": {"pad": 0}}
        (tmp_path / "vocab.json").write_bytes(_broken(data, doc))
        _loads_or_graphcap_error(lambda: Vocab.load(tmp_path / "vocab.json"))

    @FUZZ
    @given(st.data())
    def test_scene_file_and_scenes_lines(self, tmp_path, data):
        raw = _broken(data, SCENE_DOC)
        (tmp_path / "scene.json").write_bytes(raw)
        _loads_or_graphcap_error(lambda: _load_scene_file(tmp_path / "scene.json"))
        (tmp_path / "scenes.jsonl").write_bytes(json.dumps(SCENE_DOC).encode() + b"\n" + raw)
        _loads_or_graphcap_error(lambda: load_scenes(tmp_path / "scenes.jsonl"))

    @FUZZ
    @given(st.data())
    def test_asg(self, tmp_path, data):
        raw = _broken(data, ASG_DOC)
        (tmp_path / "asg.json").write_bytes(raw)
        _loads_or_graphcap_error(lambda: asg_from_json(tmp_path / "asg.json"))

    @FUZZ
    @given(st.data())
    def test_triplets_line(self, data_dir, tmp_path, data):
        for name in ("world.json", "scenes.jsonl", "vocab.json"):
            if not (tmp_path / name).exists():
                (tmp_path / name).write_bytes((data_dir / name).read_bytes())
        lines = _lines(data_dir / "triplets.jsonl")
        raw = _broken(data, json.loads(lines[0]))
        (tmp_path / "triplets.jsonl").write_bytes(raw + b"\n" + "\n".join(lines[1:]).encode())
        _loads_or_graphcap_error(lambda: _load_dataset(tmp_path))
