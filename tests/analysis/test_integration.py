"""The three choke points: deserialization, runtime admission, debug search."""

import copy
import json

import pytest

from repro.accuracy import FixedAccuracy
from repro.analysis import VerificationError
from repro.latency import CLOUD_SERVER, XIAOMI_MI_6X
from repro.latency.transfer import WIFI_TRANSFER
from repro.mdp import PAPER_REWARD
from repro.network.channel import Channel
from repro.network.traces import constant_trace
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, RuntimeEnvironment, admit_plan
from repro.runtime.session import InferenceSession
from repro.search import SearchContext
from repro.search.serialize import (
    load_plan,
    load_tree,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    save_tree,
    tree_from_dict,
)
from tests.analysis.test_tree_verify import tamper_last_shape_layer


def make_env(trace=None):
    trace = trace or constant_trace(10.0, duration_s=60.0)
    return RuntimeEnvironment(
        edge=XIAOMI_MI_6X,
        cloud=CLOUD_SERVER,
        trace=trace,
        channel=Channel(trace, WIFI_TRANSFER),
        accuracy=FixedAccuracy(0.9201),
        reward=PAPER_REWARD,
    )


class TestLoadPaths:
    def test_load_tree_roundtrip(self, trained, tmp_path):
        _, result = trained
        path = tmp_path / "tree.json"
        save_tree(result.tree, path)
        rebuilt = load_tree(path)
        assert rebuilt.node_count() == result.tree.node_count()

    def test_load_tree_rejects_corruption_with_diagnostics(self, tree_dict, tmp_path):
        tamper_last_shape_layer(tree_dict)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree_dict))
        with pytest.raises(VerificationError) as excinfo:
            load_tree(path)
        assert any(d.rule == "tree-path" for d in excinfo.value.diagnostics)

    def test_tree_from_dict_rejects_duplicate_forks(self, tree_dict):
        tree_dict["bandwidth_types"] = [5.0, 5.0]
        with pytest.raises(VerificationError):
            tree_from_dict(tree_dict)

    def test_plan_roundtrip(self, small_spec, tmp_path):
        plan = FixedPlan(small_spec.slice(0, 4), small_spec.slice(4, len(small_spec)))
        path = tmp_path / "plan.json"
        save_plan(plan, path, base=small_spec)
        rebuilt = load_plan(path)
        assert rebuilt.edge_spec.fingerprint() == plan.edge_spec.fingerprint()
        assert rebuilt.cloud_spec.fingerprint() == plan.cloud_spec.fingerprint()

    def test_plan_from_dict_rejects_broken_boundary(self, small_spec):
        plan = FixedPlan(small_spec.slice(0, 3), small_spec.slice(5, len(small_spec)))
        with pytest.raises(VerificationError):
            plan_from_dict(plan_to_dict(plan, base=small_spec))


class TestAdmission:
    def test_valid_fixed_plan_admitted(self, small_spec):
        plan = FixedPlan(small_spec.slice(0, 4), small_spec.slice(4, len(small_spec)))
        admit_plan(plan, base=small_spec)  # no raise

    def test_broken_fixed_plan_rejected(self, small_spec):
        plan = FixedPlan(small_spec.slice(0, 3), small_spec.slice(5, len(small_spec)))
        with pytest.raises(VerificationError):
            admit_plan(plan)

    def test_run_emulation_admits(self, small_spec):
        plan = FixedPlan(small_spec.slice(0, 3), small_spec.slice(5, len(small_spec)))
        with pytest.raises(VerificationError):
            run_emulation(plan, make_env(), num_requests=2)

    def test_session_rejects_tampered_tree(self, trained):
        _, result = trained
        broken = copy.deepcopy(result.tree)
        broken.root.children = broken.root.children[:1]  # tree-arity violation
        with pytest.raises(VerificationError):
            InferenceSession(broken, make_env())


def make_debug_context(context):
    return SearchContext(
        context.base,
        context.registry,
        context.estimator,
        context.accuracy,
        context.reward_config,
        debug=True,
    )


class TestDebugSearch:
    def test_debug_context_accepts_valid_candidates(self, trained):
        context, _ = trained
        debug = make_debug_context(context)
        base = context.base
        outcome = debug.evaluate(base.slice(0, 4), base.slice(4, len(base)), 10.0)
        assert outcome.reward == pytest.approx(
            context.evaluate(base.slice(0, 4), base.slice(4, len(base)), 10.0).reward
        )

    def test_debug_context_rejects_broken_candidate(self, trained):
        context, _ = trained
        debug = make_debug_context(context)
        base = context.base
        with pytest.raises(VerificationError) as excinfo:
            debug.evaluate(base.slice(0, 3), base.slice(5, len(base)), 10.0)
        assert any(d.rule == "shape-flow" for d in excinfo.value.diagnostics)

    def test_non_debug_context_fails_unstructured(self, trained):
        context, _ = trained
        base = context.base
        # Without debug the same broken candidate still blows up (the specs
        # cannot be concatenated) but with a plain ValueError and no
        # diagnostics — the hot path stays check-free.
        with pytest.raises(ValueError) as excinfo:
            context.evaluate(base.slice(0, 3), base.slice(5, len(base)), 10.0)
        assert not isinstance(excinfo.value, VerificationError)
