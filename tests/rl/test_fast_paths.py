"""The controllers' sampling bookkeeping against its plain computation.

``CategoricalHead.draw`` samples through a per-head cdf instead of one
``rng.choice`` per row, the registry caches applicability masks and each
controller caches layer encodings. All three must return exactly what the
plain code returns (``tests/optim_reference.py`` keeps the
``rng.choice`` draw), and a cached array must refuse writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import default_registry
from repro.model.spec import ModelSpec
from repro.nn.tensor import Tensor
from repro.nn.zoo import alexnet, tiny_cnn, vgg11
from repro.rl.controller import CategoricalHead, _checked_cdf
from repro.rl.encoding import LayerEncoder, encode_model
from tests.optim_reference import choice_draw

BASES = (vgg11(), alexnet(), tiny_cnn())


@st.composite
def head_cases(draw):
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(2, 8))
    # Large scales make near-degenerate rows (one action at ~1 - 1e-15).
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 40.0]))
    masked = draw(st.booleans())
    order = draw(st.permutations(range(rows)))
    return rows, width, scale, masked, order, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=120, deadline=None)
@given(head_cases())
def test_draw_matches_rng_choice(case):
    """Same indices and the same RNG state afterwards as ``rng.choice``,
    rows drawn in any order, masked rows included."""
    rows, width, scale, masked, order, seed = case
    setup = np.random.default_rng(seed)
    logits = Tensor(setup.standard_normal((rows, width)) * scale)
    mask = None
    if masked:
        mask = setup.random((rows, width)) < 0.6
        mask[np.arange(rows), setup.integers(0, width, size=rows)] = True
    head = CategoricalHead(logits, range(rows), mask)
    fast = np.random.default_rng(seed + 1)
    plain = np.random.default_rng(seed + 1)
    for row in order:
        assert head.draw(row, fast) == choice_draw(head.probs[row], plain)
        assert fast.bit_generator.state == plain.bit_generator.state


@pytest.mark.parametrize(
    "probs",
    [
        np.array([[0.5, 0.6]]),
        np.array([[1.5, -0.5]]),
        np.array([[np.nan, 1.0]]),
        np.array([[np.inf, 0.0]]),
    ],
)
def test_checked_cdf_rejects_what_choice_rejects(probs):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=probs[0])
    with pytest.raises(ValueError):
        _checked_cdf(probs)


@st.composite
def block_specs(draw):
    base = draw(st.sampled_from(BASES))
    start = draw(st.integers(0, len(base) - 1))
    stop = draw(st.integers(start + 1, len(base)))
    return base.slice(start, stop)


@settings(max_examples=60, deadline=None)
@given(block_specs())
def test_cached_mask_equals_fresh_and_is_read_only(spec):
    registry = default_registry()
    names = registry.names + ["not-a-technique"]
    first = registry.applicability(spec, names)
    # A new spec object with the same content hits the cache.
    twin = ModelSpec(spec.layers, spec.input_shape, name="twin")
    cached = registry.applicability(twin, names)
    assert cached is first
    fresh = default_registry().applicability(spec, names)
    assert np.array_equal(cached, fresh)
    expected = np.array(
        [
            [name in registry and registry.get(name).applies_to(spec, i) for name in names]
            for i in range(len(spec))
        ]
    )
    assert np.array_equal(cached, expected)
    with pytest.raises(ValueError):
        cached[0, 0] = not cached[0, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(block_specs(), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 2000.0), min_size=4, max_size=4),
)
def test_cached_encoding_equals_encode_model(specs, bandwidths):
    encoder = LayerEncoder()
    for spec, bw in zip(specs, bandwidths):
        # Twice: the second call reads every row from the cache.
        for _ in range(2):
            batch = encoder.encode([spec, spec], [bw, bandwidths[-1]])
            expected = np.concatenate(
                [encode_model(spec, bw), encode_model(spec, bandwidths[-1])]
            )
            assert batch.tobytes() == expected.tobytes()
            batch[...] = 0.0  # a fresh array: writing it leaves the cache alone
    row = encoder.row(specs[0][0])
    with pytest.raises(ValueError):
        row[0] = 1.0
