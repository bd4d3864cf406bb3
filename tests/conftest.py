"""Shared fixtures."""

from collections import Counter

import pytest

from presheaf_reference import clear_shape_caches
from sheafsep.day import CoendClass, Decomp
from sheafsep.presheaf import AmalgamationIso, Heap, MatchClass, _EncodedCover
from sheafsep.site import CoverSkeleton


@pytest.fixture(autouse=True)
def cold_shape_caches():
    """Every test starts with empty shape tables and sheaf certificates,
    so that the work a test counts (table entries, `is_sheaf` calls,
    least-cover enumerations) does not depend on the tests run before
    it in the same process."""
    clear_shape_caches()


@pytest.fixture
def built(monkeypatch):
    """Counts, by class name, of the Heap, Decomp, CoendClass, MatchClass,
    AmalgamationIso, _EncodedCover and CoverSkeleton objects constructed
    while the test runs."""
    counts = Counter()
    for cls in (Heap, Decomp, CoendClass, MatchClass, AmalgamationIso, _EncodedCover,
                CoverSkeleton):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts
