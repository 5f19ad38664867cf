"""Name → index factory, so the harness and examples can say ``"rtree"``.

``make_index("ch", bin_width=0.2)`` instantiates the class with its keyword
parameters; ``available_indexes()`` lists what can be asked for.  Approximate
indexes require their τ explicitly — silently defaulting a truncation radius
would hide an accuracy decision from the user.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.indexes.base import DPCIndex
from repro.indexes.ch_index import CHIndex
from repro.indexes.grid import GridIndex
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rn_list import RNCHIndex, RNListIndex
from repro.indexes.rtree import RTreeIndex

__all__ = ["available_indexes", "make_index", "register_index", "INDEX_CLASSES"]

INDEX_CLASSES: Dict[str, Type[DPCIndex]] = {
    ListIndex.name: ListIndex,
    CHIndex.name: CHIndex,
    RNListIndex.name: RNListIndex,
    RNCHIndex.name: RNCHIndex,
    QuadtreeIndex.name: QuadtreeIndex,
    RTreeIndex.name: RTreeIndex,
    KDTreeIndex.name: KDTreeIndex,
    GridIndex.name: GridIndex,
}


def register_index(cls: Type[DPCIndex]) -> Type[DPCIndex]:
    """Register a custom index class under ``cls.name`` (decorator-friendly)."""
    if not issubclass(cls, DPCIndex):
        raise TypeError(f"{cls!r} is not a DPCIndex subclass")
    if cls.name in (None, "", "abstract"):
        raise ValueError(f"{cls.__name__} must define a concrete registry name")
    INDEX_CLASSES[cls.name] = cls
    return cls


def available_indexes() -> tuple:
    """Registered index names, sorted."""
    return tuple(sorted(INDEX_CLASSES))


def make_index(name: str, **params) -> DPCIndex:
    """Instantiate the index registered under ``name`` with ``params``."""
    try:
        cls = INDEX_CLASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown index {name!r}; available: {available_indexes()}"
        ) from None
    return cls(**params)
