"""Pinned diagnostics for every malformed tree the analysis tests build.

``tree_corpus.json`` holds the exact ``(rule, severity, location, message,
hint)`` list, in order, that :func:`~repro.analysis.verify_tree` reported
for each case when the corpus was written. The cases are the corrupted
copies of the trained tree that the other analysis tests make, and
seeded random shapes (:func:`tests.conftest.seeded_tree_shape`), plain
and tampered, checked both as objects and serialized through
``tree_to_dict``. A rule that changes a location, a message or the order
of its findings fails here, not only one that stops firing.

Regenerate (only when a message change is intended) with
``PYTHONPATH=src python -m tests.analysis.test_tree_corpus``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis import verify_tree
from repro.nn.zoo import tiny_cnn
from repro.search.serialize import tree_to_dict
from tests.analysis.test_tree_verify import tamper_last_shape_layer
from tests.conftest import seeded_tree_shape

CORPUS_PATH = Path(__file__).with_name("tree_corpus.json")
SHAPE_SEEDS = range(60)
TINY = tiny_cnn()


def _format_v99(data):
    data["format"] = "repro.model_tree.v99"


def _base_kernel(data):
    data["base"]["layers"][0]["kernel_size"] = 999


def _duplicate_types(data):
    data["bandwidth_types"] = [5.0, 5.0]


def _close_types(data):
    data["bandwidth_types"] = [5.0001, 5.0004]


def _dropped_child(data):
    data["root"]["children"] = data["root"]["children"][:1]


def _swapped_forks(data):
    data["root"]["children"] = data["root"]["children"][::-1]


def _root_edge_kernel_string(data):
    data["root"]["edge_spec"]["layers"][0]["kernel_size"] = "x"


def _base_channels_string(data):
    data["base"]["input_shape"]["channels"] = "a"


#: Corruptions of the trained tree's dict, as the analysis tests make them.
DICT_CORRUPTIONS = {
    "format-v99": _format_v99,
    "base-kernel": _base_kernel,
    "duplicate-types": _duplicate_types,
    "close-types": _close_types,
    "dropped-child": _dropped_child,
    "swapped-forks": _swapped_forks,
    "tampered-edge-channels": tamper_last_shape_layer,
    "root-edge-kernel-string": _root_edge_kernel_string,
    "base-channels-string": _base_channels_string,
}


def _rows(diagnostics):
    return [
        [d.rule, d.severity.value, d.location, d.message, d.hint] for d in diagnostics
    ]


def shape_case(seed):
    """(name, tree) of one seeded shape; odd seeds are tampered."""
    tamper = bool(seed % 2)
    name = f"shape-{seed}" + ("-tampered" if tamper else "")
    return name, seeded_tree_shape(seed, TINY, tamper=tamper)


def corpus(trained_tree):
    """Every case's diagnostics, keyed by case name."""
    cases = {}
    for name, corrupt in DICT_CORRUPTIONS.items():
        data = tree_to_dict(trained_tree)
        corrupt(data)
        cases[f"trained-{name}"] = _rows(verify_tree(data))
    broken = copy.deepcopy(trained_tree)
    broken.root.children = broken.root.children[:1]
    cases["trained-object-dropped-child"] = _rows(verify_tree(broken))
    for seed in SHAPE_SEEDS:
        name, tree = shape_case(seed)
        cases[name] = _rows(verify_tree(tree_to_dict(tree)))
    return cases


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_matches_pinned(trained, pinned):
    _, result = trained
    assert corpus(result.tree) == pinned


@pytest.mark.parametrize("seed", SHAPE_SEEDS)
def test_object_form_matches_pinned(seed, pinned):
    name, tree = shape_case(seed)
    assert _rows(verify_tree(tree)) == pinned[name]


def test_corpus_covers_every_tree_rule(pinned):
    rules = {row[0] for rows in pinned.values() for row in rows}
    assert {"artifact-format", "shape-flow", "fork-cover", "tree-arity", "tree-path"} <= rules
    messages = {row[3] for rows in pinned.values() for row in rows if row[0] == "tree-path"}
    for fragment in (
        "does not continue the path",
        "composes to an empty model",
        "at the partition boundary",
        "does not match base output",
    ):
        assert any(fragment in message for message in messages), fragment


if __name__ == "__main__":
    from repro.nn.zoo import vgg11
    from repro.search.tree import TreeSearchConfig, model_tree_search
    from tests.conftest import make_context

    context = make_context(vgg11(), 0.9201)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=5, seed=0)
    tree = model_tree_search(context, [5.0, 20.0], config=config).tree
    cases = corpus(tree)
    CORPUS_PATH.write_text(
        "{\n"
        + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
        + "\n}\n"
    )
    print(f"wrote {len(cases)} cases to {CORPUS_PATH.name}")
