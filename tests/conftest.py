"""Shared fixtures."""

from collections import Counter

import pytest

from sheafsep.day import CoendClass, Decomp
from sheafsep.presheaf import AmalgamationIso, Heap, MatchClass, _EncodedCover


@pytest.fixture
def built(monkeypatch):
    """Counts, by class name, of the Heap, Decomp, CoendClass, MatchClass,
    AmalgamationIso and _EncodedCover objects constructed while the test
    runs."""
    counts = Counter()
    for cls in (Heap, Decomp, CoendClass, MatchClass, AmalgamationIso, _EncodedCover):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts
