"""The per-spec memo behind ``DeviceProfile.model_latency_ms``.

The memo must be invisible: bit-identical to the plain per-primitive sum,
stable across repeat calls, and never served to another profile, be it a
``dataclasses.replace``d copy with the same name or a profile met after
the spec was pickled.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.latency.devices import DEVICE_PRESETS, XIAOMI_MI_6X, DeviceProfile
from repro.latency.maccs import layer_maccs, model_macc_entries
from repro.nn.zoo import BASE_MODELS, get_model

MODELS = {name: get_model(name) for name in sorted(BASE_MODELS)}

#: Every preset, plus a profile that shares the phone's name but none of
#: its coefficients.
PROFILES = list(DEVICE_PRESETS.values()) + [
    dataclasses.replace(
        XIAOMI_MI_6X,
        conv_coeff_ms=4.1e-7,
        fc_coeff_ms=5.3e-7,
        conv_kernel_coeffs_ms={3: 3.7e-7},
        dispatch_overhead_ms=0.07,
        min_primitive_ms=0.01,
        quantized_speedup=1.3,
    )
]


def reference_ms(profile, spec):
    """The uncached sum, in the same primitive order as the model path."""
    return sum(
        profile.primitive_latency_ms(entry)
        for i, layer in enumerate(spec.layers)
        for entry in layer_maccs(
            layer, spec.input_shape_of(i), spec.output_shape_of(i), i
        )
    )


@st.composite
def sliced_specs(draw):
    """A fresh ``slice(a, b)`` of a zoo model (possibly empty)."""
    base = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    start = draw(st.integers(0, len(base)))
    stop = draw(st.integers(start, len(base)))
    return base.slice(start, stop)


profile_orders = st.permutations(range(len(PROFILES)))


@given(sliced_specs(), profile_orders)
@settings(max_examples=60, deadline=None)
def test_memo_is_bit_identical_to_the_uncached_sum(spec, order):
    for index in order:
        profile = PROFILES[index]
        first = profile.model_latency_ms(spec)
        assert first == reference_ms(profile, spec)
        assert profile.model_latency_ms(spec) == first
    # A second sweep, served from the memo, still matches every profile.
    for index in reversed(order):
        profile = PROFILES[index]
        assert profile.model_latency_ms(spec) == reference_ms(profile, spec)


@given(sliced_specs(), profile_orders)
@settings(max_examples=40, deadline=None)
def test_unpickled_spec_serves_each_profile_its_own_value(spec, order):
    for profile in PROFILES:
        profile.model_latency_ms(spec)
    restored = pickle.loads(pickle.dumps(spec))
    copies = pickle.loads(pickle.dumps(PROFILES))
    for index in order:
        for profile in (PROFILES[index], copies[index]):
            assert profile.model_latency_ms(restored) == reference_ms(profile, spec)


def test_memo_never_outlives_its_profile_across_pickling():
    # Once a profile is freed, the next one allocated may take its address.
    # An identity-keyed memo that travelled inside a pickle would then hand
    # that new profile the dead one's total.
    base = MODELS["vgg11"]
    coefficients = {
        f.name: getattr(XIAOMI_MI_6X, f.name) for f in dataclasses.fields(DeviceProfile)
    }
    reused = 0
    for step in range(1, 101):
        spec = base.slice(0, 10)
        warm = dataclasses.replace(XIAOMI_MI_6X, dispatch_overhead_ms=0.01 * step)
        warm.model_latency_ms(spec)
        payload, dead_id = pickle.dumps(spec), id(warm)
        del spec, warm
        fresh = DeviceProfile.__new__(DeviceProfile)  # likely on warm's block
        fresh.__init__(**{**coefficients, "dispatch_overhead_ms": 0.5 * step})
        restored = pickle.loads(payload)
        reused += id(fresh) == dead_id
        assert fresh.model_latency_ms(restored) == reference_ms(fresh, restored)
    if not reused:
        pytest.skip("the allocator never reused a freed profile's address")


def test_macc_entries_are_built_once_with_their_layer_index():
    spec = MODELS["resnet50"].slice(3, 40)
    entries = model_macc_entries(spec)
    assert model_macc_entries(spec) is entries
    assert entries == tuple(
        entry
        for i, layer in enumerate(spec.layers)
        for entry in layer_maccs(
            layer, spec.input_shape_of(i), spec.output_shape_of(i), i
        )
    )


def test_layer_latency_sums_to_the_model_latency():
    spec = MODELS["alexnet"]
    for profile in PROFILES:
        per_layer = [
            profile.layer_latency_ms(
                layer, spec.input_shape_of(i), spec.output_shape_of(i)
            )
            for i, layer in enumerate(spec.layers)
        ]
        assert abs(sum(per_layer) - profile.model_latency_ms(spec)) < 1e-9
