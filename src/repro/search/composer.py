"""Fingerprint-keyed cache of spec concatenations.

Composing a candidate — a path's edge prefix, the inherited cloud suffix,
or the full edge+cloud model — re-concatenates the same immutable
:class:`~repro.model.spec.ModelSpec` parts thousands of times across
episodes. Each concatenation rebuilds the layer tuple and forces a fresh
fingerprint serialization downstream. The parts are immutable and carry lazily *cached* fingerprints, so the composition is
fully determined by the part fingerprints: :class:`SpecComposer` memoizes
it in a bounded LRU :class:`~repro.perf.MemoPool` keyed on exactly that
tuple. A cache hit also returns a spec whose own fingerprint was already
computed, making downstream memo lookups (accuracy, search results) O(1).

One composer per owner (a :class:`~repro.search.context.SearchContext`)
— never module-global, so parallel scenario workers share nothing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..model.spec import ModelSpec
from ..perf import DEFAULT_MAXSIZE, MemoPool, MemoStats


class SpecComposer:
    """Caches ``concatenate`` chains by the parts' cached fingerprints."""

    def __init__(
        self,
        maxsize: Optional[int] = DEFAULT_MAXSIZE,
        name: str = "compose.memo",
    ) -> None:
        self._pool = MemoPool(maxsize=maxsize, name=name)

    def concat(
        self,
        parts: Sequence[Optional[ModelSpec]],
        name: Optional[str] = None,
    ) -> Optional[ModelSpec]:
        """Concatenate the non-empty ``parts`` left to right.

        ``None`` and zero-length parts are skipped. Returns ``None`` when
        nothing remains and the single part itself (uncached, unrenamed)
        when only one does — matching the inline folds this replaces. The
        cache key is ``(name, part fingerprints…)``; the name participates
        because it is carried on the composed spec (though excluded from
        its fingerprint).
        """
        pieces: List[ModelSpec] = [
            p for p in parts if p is not None and len(p)
        ]
        if not pieces:
            return None
        if len(pieces) == 1:
            return pieces[0]
        key = (name, tuple(p.fingerprint() for p in pieces))
        cached = self._pool.get(key)
        if cached is not None:
            return cached
        spec = pieces[0]
        for part in pieces[1:-1]:
            spec = spec.concatenate(part)
        spec = spec.concatenate(pieces[-1], name=name)
        spec.fingerprint()  # pre-warm: hits hand out a ready fingerprint
        self._pool.put(key, spec)
        return spec

    # -- introspection ----------------------------------------------------
    @property
    def pool(self) -> MemoPool:
        return self._pool

    @property
    def stats(self) -> MemoStats:
        return self._pool.stats

    def __len__(self) -> int:
        return len(self._pool)

    def clear(self) -> None:
        self._pool.clear()
