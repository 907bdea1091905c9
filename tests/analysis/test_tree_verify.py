"""Tree-level rules: silent on real search output, loud on corrupted copies."""

import json

import pytest

from repro.analysis import (
    Severity,
    VerificationError,
    detect_kind,
    verify_artifact,
    verify_tree,
)
from repro.analysis.__main__ import main as analysis_main
from repro.search.serialize import load_tree, plan_to_dict, tree_to_dict
from repro.runtime.engine import FixedPlan


def error_rules(diagnostics):
    return {d.rule for d in diagnostics if d.severity is Severity.ERROR}


def iter_node_dicts(node):
    yield node
    for child in node["children"]:
        yield from iter_node_dicts(child)


def tamper_last_shape_layer(tree_dict):
    """Bump ``out_channels`` of the last conv/fc in some node's edge spec.

    Only the *last* shape-determining layer propagates to the block boundary
    (a later conv/fc would re-impose its own absolute ``out_channels``), so
    this is the minimal corruption a boundary check must catch.
    """
    for node in iter_node_dicts(tree_dict["root"]):
        spec = node.get("edge_spec")
        if not spec or not spec["layers"]:
            continue
        for layer in reversed(spec["layers"]):
            if layer["layer_type"] in ("conv", "pw_conv", "fc"):
                layer["out_channels"] += 7
                return node["block_index"]
    raise AssertionError("no shape-determining edge layer found to tamper")


class TestCleanTree:
    def test_object_form_clean(self, trained):
        _, result = trained
        assert verify_tree(result.tree) == []

    def test_dict_form_clean(self, tree_dict):
        assert verify_tree(tree_dict) == []

    def test_every_branch_plan_admissible(self, trained):
        context, result = trained
        for path in result.tree.branches():
            terminal = path[-1]
            if terminal.result is None:
                continue
            plan = FixedPlan(terminal.result.edge_spec, terminal.result.cloud_spec)
            data = plan_to_dict(plan, base=context.base)
            kind, diags = verify_artifact(data)
            assert kind == "fixed_plan"
            assert error_rules(diags) == set()


class TestCorruptedTree:
    def test_artifact_format(self, tree_dict):
        tree_dict["format"] = "repro.model_tree.v99"
        assert error_rules(verify_tree(tree_dict)) == {"artifact-format"}

    def test_shape_flow_in_base(self, tree_dict):
        tree_dict["base"]["layers"][0]["kernel_size"] = 999
        assert "shape-flow" in error_rules(verify_tree(tree_dict))

    def test_fork_cover_on_duplicate_types(self, tree_dict):
        tree_dict["bandwidth_types"] = [5.0, 5.0]
        assert "fork-cover" in error_rules(verify_tree(tree_dict))

    def test_close_types_warn_without_error(self, tree_dict):
        # Exact-float memo keys: sub-1e-3 deltas are a fork-cover warning
        # (indistinguishable forks), no longer a memo-key error.
        tree_dict["bandwidth_types"] = [5.0001, 5.0004]
        diags = verify_tree(tree_dict)
        assert "memo-key" not in error_rules(diags)
        assert "fork-cover" in {d.rule for d in diags}

    def test_tree_arity_on_dropped_child(self, tree_dict):
        root = tree_dict["root"]
        assert len(root["children"]) == 2
        root["children"] = root["children"][:1]
        assert "tree-arity" in error_rules(verify_tree(tree_dict))

    def test_tree_arity_on_swapped_forks(self, tree_dict):
        root = tree_dict["root"]
        root["children"] = root["children"][::-1]
        assert "tree-arity" in error_rules(verify_tree(tree_dict))

    def test_tree_path_on_tampered_edge_channels(self, tree_dict):
        tamper_last_shape_layer(tree_dict)
        assert "tree-path" in error_rules(verify_tree(tree_dict))

    @pytest.mark.parametrize("children", [None, 3, "abc"])
    def test_non_list_children_are_artifact_format(self, tree_dict, children):
        tree_dict["root"]["children"][1]["children"] = children
        diags = verify_tree(tree_dict)
        assert error_rules(diags) == {"artifact-format"}
        assert [d.location for d in diags] == ["node root>1"]

    def test_missing_base_is_artifact_format(self, tree_dict):
        tree_dict["base"] = None
        diags = verify_tree(tree_dict)
        assert error_rules(diags) == {"artifact-format"}
        assert [(d.location, d.message) for d in diags] == [
            ("base", "tree has no base model")
        ]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.update(base=None),
            lambda data: data["root"].update(children=None),
        ],
    )
    def test_loaders_and_cli_reject_without_a_traceback(
        self, tree_dict, corrupt, tmp_path, capsys
    ):
        corrupt(tree_dict)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree_dict))
        with pytest.raises(VerificationError):
            load_tree(path)
        assert analysis_main([str(path)]) == 1
        assert "artifact-format" in capsys.readouterr().out


class TestArtifactDispatch:
    def test_detect_kind(self, tree_dict, small_spec):
        assert detect_kind(tree_dict) == "model_tree"
        plan = FixedPlan(small_spec.slice(0, 4), small_spec.slice(4, len(small_spec)))
        assert detect_kind(plan_to_dict(plan)) == "fixed_plan"
        assert detect_kind(small_spec.to_dict()) == "model_spec"

    def test_verify_artifact_from_path(self, tree_dict, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree_dict))
        kind, diags = verify_artifact(path)
        assert kind == "model_tree"
        assert diags == []

    def test_unreadable_path_is_diagnosed(self, tmp_path):
        kind, diags = verify_artifact(tmp_path / "missing.json")
        assert error_rules(diags) == {"artifact-format"}

    def test_non_object_json_is_diagnosed(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text("42")
        _, diags = verify_artifact(path)
        assert error_rules(diags) == {"artifact-format"}

    def test_unknown_kind_degrades_to_diagnostic(self, tree_dict):
        kind, diags = verify_artifact(tree_dict, kind="nonsense")
        assert kind == ""
        assert error_rules(diags) == {"artifact-format"}


class TestCli:
    def test_clean_artifact_exits_zero(self, tree_dict, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree_dict))
        assert analysis_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_artifact_exits_one(self, tree_dict, tmp_path, capsys):
        tree_dict["bandwidth_types"] = [5.0, 5.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree_dict))
        assert analysis_main([str(path)]) == 1
        assert "fork-cover" in capsys.readouterr().out

    def test_mixed_batch_fails_overall(self, tree_dict, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(tree_dict))
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert analysis_main([str(good), str(bad)]) == 1

    def test_quiet_suppresses_ok_lines(self, tree_dict, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(tree_dict))
        assert analysis_main(["--quiet", str(path)]) == 0
        assert capsys.readouterr().out == ""
