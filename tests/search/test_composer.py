"""Tests for the fingerprint-keyed composed-spec cache."""

import pytest

from repro.search.composer import SpecComposer
from tests.conftest import make_context


@pytest.fixture
def parts(small_spec):
    return [small_spec.slice(0, 4), small_spec.slice(4, len(small_spec))]


class TestConcat:
    def test_empty_returns_none(self):
        assert SpecComposer().concat([]) is None

    def test_none_and_empty_parts_skipped(self, small_spec):
        composer = SpecComposer()
        empty = small_spec.slice(0, 0)
        assert composer.concat([None, empty, None]) is None

    def test_single_part_returned_as_is(self, small_spec):
        composer = SpecComposer()
        assert composer.concat([None, small_spec]) is small_spec
        assert len(composer) == 0  # identity is never cached

    def test_concat_matches_manual_fold(self, parts, small_spec):
        composed = SpecComposer().concat(parts, name="composed")
        manual = parts[0].concatenate(parts[1], name="composed")
        assert composed.fingerprint() == manual.fingerprint()
        assert composed.name == "composed"
        assert len(composed) == len(small_spec)

    def test_repeat_composition_returns_cached_object(self, parts):
        composer = SpecComposer()
        first = composer.concat(parts)
        second = composer.concat(parts)
        assert second is first
        assert composer.stats.hits == 1
        assert composer.stats.misses == 1
        assert len(composer) == 1

    def test_name_participates_in_key(self, parts):
        composer = SpecComposer()
        a = composer.concat(parts, name="a")
        b = composer.concat(parts, name="b")
        assert a is not b
        assert a.name == "a" and b.name == "b"
        assert len(composer) == 2

    def test_cached_spec_has_prewarmed_fingerprint(self, parts):
        composer = SpecComposer()
        composed = composer.concat(parts)
        # The fingerprint was computed on the miss path, so a hit hands
        # out a spec whose lazy fingerprint cache is already populated.
        assert composed._fingerprint is not None

    def test_bounded_lru_evicts(self, small_spec):
        composer = SpecComposer(maxsize=1)
        a = [small_spec.slice(0, 2), small_spec.slice(2, 4)]
        b = [small_spec.slice(0, 3), small_spec.slice(3, 6)]
        composer.concat(a)
        composer.concat(b)
        assert len(composer) == 1
        assert composer.stats.evictions == 1

    def test_clear(self, parts):
        composer = SpecComposer()
        composer.concat(parts)
        composer.clear()
        assert len(composer) == 0
        assert composer.stats.misses == 0


class TestComposerIntegration:
    def test_context_owns_composer_and_uses_it(self, small_spec):
        context = make_context(small_spec)
        edge = small_spec.slice(0, 4)
        cloud = small_spec.slice(4, len(small_spec))
        context.evaluate(edge, cloud, 10.0)
        assert context.composer.stats.misses == 1
        # A new bandwidth misses the result pool but hits the composer.
        context.evaluate(edge, cloud, 20.0)
        assert context.composer.stats.hits == 1
