"""The tree-path compiler against the reference walks in ``tests/tree_paths``."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.treepath as treepath
from repro.analysis import Severity, verify_tree
from repro.nn.zoo import tiny_cnn
from repro.runtime.engine import TreePlan
from repro.search.serialize import tree_to_dict
from tests import tree_paths
from tests.conftest import tree_shapes

TINY = tiny_cnn()

any_trees = st.one_of(tree_shapes(TINY), tree_shapes(TINY, tamper=True))


def _identity(spec):
    return None if spec is None else (spec.layers, spec.input_shape)


def _composes(path):
    """Whether executing ``path`` could build its model at all."""
    edge = None
    try:
        for node in path:
            if node.edge_spec is not None and len(node.edge_spec):
                edge = node.edge_spec if edge is None else edge.concatenate(node.edge_spec)
        cloud = path[-1].cloud_spec
        if cloud is not None and len(cloud):
            if edge is not None:
                edge.concatenate(cloud)
            return True
    except ValueError:
        return False
    return edge is not None


class TestCompiler:
    @settings(max_examples=200, deadline=None)
    @given(tree=any_trees)
    def test_faults_and_leaves_match_reference(self, tree):
        compiled = treepath.compile_tree(tree.root, tree.base)
        diagnostics, candidates = tree_paths._verify_tree_paths(tree.root, tree.base)
        assert [
            ("tree-path", Severity.ERROR, f.location, f.message, f.hint)
            for f in compiled.faults
        ] == [(d.rule, d.severity, d.location, d.message, d.hint) for d in diagnostics]
        sound = [leaf for leaf in compiled.leaves if leaf.sound]
        assert [
            (_identity(leaf.edge_spec), _identity(leaf.cloud_spec), leaf.bandwidth_mbps)
            for leaf in sound
        ] == [(_identity(e), _identity(c), w) for e, c, w in candidates]

    @settings(max_examples=200, deadline=None)
    @given(tree=any_trees)
    def test_breaks_are_exactly_the_paths_that_cannot_compose(self, tree):
        compiled = treepath.compile_tree(tree.root, tree.base)
        composes = all(_composes(path) for path in tree.branches())
        assert (compiled.broken is None) == composes
        assert (compiled.root is None) == (not composes)
        if composes:
            assert [leaf.path for leaf in compiled.leaves] == [
                tuple(path) for path in tree.branches()
            ]

    @settings(max_examples=100, deadline=None)
    @given(tree=any_trees)
    def test_object_and_dict_forms_agree(self, tree):
        assert verify_tree(tree) == verify_tree(tree_to_dict(tree))

    @settings(max_examples=100, deadline=None)
    @given(tree=any_trees)
    def test_unadmitted_plan_raises_only_on_breaks(self, tree):
        compiled = treepath.compile_tree(tree.root, tree.base)
        plan = TreePlan(tree)
        if compiled.broken is None:
            assert plan.compiled().leaves == compiled.leaves
        else:
            try:
                plan.compiled()
            except ValueError as exc:
                assert compiled.broken.location in str(exc)
            else:
                raise AssertionError("a broken tree compiled")


def test_reference_shares_no_code_with_the_compiler():
    """``tests/tree_paths`` stays an independent oracle: it holds nothing
    from the compiler or from the new ``compose_from_tree``."""
    shared = [
        name
        for name, value in vars(tree_paths).items()
        if getattr(value, "__module__", "") in ("repro.model.treepath", "repro.search.compose")
        and name != "match_fork"
    ]
    assert shared == []


def test_compile_split_is_the_one_leaf_case(small_spec):
    edge, cloud = small_spec.slice(0, 4), small_spec.slice(4, len(small_spec))
    node = treepath.compile_split(edge, cloud)
    assert node.children == () and node.edge_spec is edge
    assert node.leaf.full_spec.fingerprint() == small_spec.fingerprint()
    assert node.leaf.payload_bytes == edge.output_shape.num_bytes
    assert treepath.compile_split(None, small_spec).leaf.payload_bytes == (
        small_spec.input_shape.num_bytes
    )
    assert treepath.compile_split(small_spec, small_spec.slice(0, 0)).leaf.cloud_spec is None
    for broken in ((None, None), (small_spec.slice(0, 3), cloud)):
        try:
            treepath.compile_split(*broken)
        except ValueError:
            continue
        raise AssertionError(f"compiled {broken}")


def test_compile_runs_once_per_admitted_plan(monkeypatch):
    from repro.runtime.engine import admit_plan
    from tests.conftest import make_split_tree

    plan = TreePlan(make_split_tree(TINY))
    admit_plan(plan)
    calls = []
    monkeypatch.setattr(
        "repro.runtime.engine.compile_tree", lambda *a: calls.append(a)
    )
    assert plan.compiled().leaves[0].full_spec.fingerprint() == TINY.fingerprint()
    assert calls == []
