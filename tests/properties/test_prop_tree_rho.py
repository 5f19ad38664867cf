"""Leaf-grouped tree ρ kernel vs the per-pair reference (bit identity).

``repro.indexes.kernels.tree_rho_batched`` decides whole leaves of queries
per node and scans leaves from fixed-width padded rows.  The contract is
that ρ *and* every :class:`~repro.indexes.base.IndexStats` counter equal
the per-``(query, node)`` kernel kept in ``tests/tree_rho_reference.py``,
for every tree family, rect-capable metric, build path and query subset,
on corpora chosen to put points exactly on node boundaries and exactly
``dc`` apart: duplicates, an integer lattice (ρ ties), and a mixed set.
Queries that are not members of an image run alone or, given a caller's
``group`` keys, as groups; both must match.
"""

import numpy as np
import pytest

from repro.geometry.distance import get_metric, pairwise_distances
from repro.indexes.base import IndexStats
from repro.indexes.kernels import flatten_tree, tree_rho_batched
from repro.indexes.registry import make_index
from repro.indexes.treebase import TreeNode

from tests.tree_rho_reference import reference_tree_rho

#: Small node capacities so every tree has several levels.
FAMILIES = {
    "kdtree": {"leaf_size": 6},
    "quadtree": {"capacity": 6},
    "rtree": {"max_entries": 5},
}

METRICS = ("euclidean", "sqeuclidean", "manhattan", "chebyshev", "minkowski[p=3]")

CORPORA = ("duplicates", "rho-ties", "mixed")

QUERY_SETS = ("all", "subset", "chunk", "empty")

SEEDS = {"duplicates": 11, "rho-ties": 12, "mixed": 13}


def corpus(name: str, dim: int = 2) -> np.ndarray:
    r = np.random.default_rng(SEEDS[name] + 100 * dim)
    if name == "duplicates":
        base = r.normal(0.0, 1.0, size=(24, dim))
        extra = r.normal(2.0, 1.0, size=(20, dim))
        return np.concatenate([base, base, base[:12], extra])
    if name == "rho-ties":
        return r.integers(0, 5, size=(80, dim)).astype(np.float64)
    blob = r.normal(0.0, 0.6, size=(40, dim))
    dup = np.round(r.normal(3.0, 0.5, size=(20, dim)), 1)
    lattice = r.integers(-2, 2, size=(20, dim)).astype(np.float64)
    return np.concatenate([blob, dup, dup[:10], lattice])


def cutoffs(points: np.ndarray, metric: str) -> "list[float]":
    """Cut-offs that land exactly on pairwise distances, between them,
    below the smallest one and above the largest one."""
    d = pairwise_distances(points, metric=metric)
    uniq = np.unique(d[np.triu_indices(len(points), k=1)])
    uniq = uniq[uniq > 0.0]
    picks = [uniq[len(uniq) // 10], uniq[len(uniq) // 3], uniq[len(uniq) // 2]]
    between = (uniq[len(uniq) // 4] + uniq[len(uniq) // 4 + 1]) / 2.0
    return [float(v) for v in (*picks, between, uniq[0] / 2.0, uniq[-1] * 2.0)]


def query_ids(kind: str, n: int):
    if kind == "all":
        return None
    if kind == "subset":
        return np.sort(np.random.default_rng(n).choice(n, n // 3, replace=False))
    if kind == "chunk":
        return np.arange(n // 4, n // 2, dtype=np.int64)
    return np.zeros(0, dtype=np.int64)


def assert_matches_reference(flat, points, metric, dcs, context="", group=None):
    metric = get_metric(metric)
    for kind in QUERY_SETS:
        qid = query_ids(kind, len(points))
        for dc in dcs:
            s_ref, s_new = IndexStats(), IndexStats()
            ref = reference_tree_rho(flat, points, dc, metric, s_ref, qid=qid)
            got = tree_rho_batched(
                flat, points, dc, metric, s_new, qid=qid, group=group
            )
            where = f"{context} qid={kind} dc={dc!r}"
            assert got.dtype == ref.dtype, where
            np.testing.assert_array_equal(got, ref, err_msg=f"rho differs {where}")
            assert s_new.as_dict() == s_ref.as_dict(), where


@pytest.mark.parametrize("build", ["bulk", "objects"])
@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_reference(family, metric, corpus_name, build):
    points = corpus(corpus_name)
    index = make_index(family, metric=metric, build=build, **FAMILIES[family])
    index.fit(points)
    assert_matches_reference(
        index._flat_tree(), index.points, metric, cutoffs(points, metric),
        context=f"{family}/{metric}/{corpus_name}/{index.build_}",
    )


def subset_images(index):
    """Images over a random 60 % of the index's points and over the rest,
    built with ``_image_over`` as the append repair builds its images of
    the new points; ``(name, image, member ids)``."""
    n = index.n
    ids = np.random.default_rng(n).permutation(n)
    cut = int(n * 0.6)
    part, rest = np.sort(ids[:cut]), np.sort(ids[cut:])
    return [
        ("subset", index._image_over(index.points, part), part),
        ("rest", index._image_over(index.points, rest), rest),
    ]


@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_reference_on_subset_images(family, metric, corpus_name):
    """Queries that are not members of an image run as single queries:
    every point against images over a part of the points."""
    points = corpus(corpus_name)
    index = make_index(family, metric=metric, **FAMILIES[family]).fit(points)
    dcs = cutoffs(points, metric)
    context = f"{family}/{metric}/{corpus_name}"
    for name, image, _ in subset_images(index):
        assert_matches_reference(image, index.points, metric, dcs, f"{context}/{name}")


@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grouped_non_members_match_reference(family, metric, corpus_name):
    """Non-members grouped by a caller's key — their leaf of the index
    image, as the append repair groups the old points in an image of the
    new ones, their leaf of another subset's image, or arbitrary keys with
    some ``-1`` (single) rows — keep ρ and every counter."""
    points = corpus(corpus_name)
    index = make_index(family, metric=metric, **FAMILIES[family]).fit(points)
    n = len(points)
    (_, part_image, part), (_, rest_image, rest) = subset_images(index)
    part_leaf = np.full(n, -1, dtype=np.int64)
    part_leaf[part] = part_image.leaf_node_of
    arbitrary = np.random.default_rng(n).integers(-1, 4, size=n)
    dcs = cutoffs(points, metric)
    context = f"{family}/{metric}/{corpus_name}"
    for name, image, group in (
        ("rest/index-leaf", rest_image, index._flat_tree().leaf_node_of),
        ("rest/subset-leaf", rest_image, part_leaf),
        ("rest/arbitrary", rest_image, arbitrary),
        ("subset/arbitrary", part_image, arbitrary),
    ):
        assert_matches_reference(
            image, index.points, metric, dcs, f"{context}/{name}", group=group
        )


@pytest.mark.parametrize("build", ["bulk", "objects"])
@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", ["kdtree", "rtree"])
def test_matches_reference_in_three_dimensions(family, metric, corpus_name, build):
    points = corpus(corpus_name, dim=3)
    index = make_index(family, metric=metric, build=build, **FAMILIES[family])
    index.fit(points)
    assert_matches_reference(
        index._flat_tree(), index.points, metric, cutoffs(points, metric),
        context=f"{family}/{metric}/{corpus_name}/{index.build_}/3d",
    )


@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("metric", METRICS)
def test_matches_reference_on_dynamic_rtree(metric, corpus_name):
    """Guttman insertion: overlapping boxes, uneven leaves."""
    points = corpus(corpus_name)
    index = make_index("rtree", metric=metric, packing="dynamic", max_entries=5)
    index.fit(points)
    assert_matches_reference(
        index._flat_tree(), index.points, metric, cutoffs(points, metric),
        context=f"rtree-dynamic/{metric}/{corpus_name}",
    )


def arbitrary_tree(rng, points, ids, depth):
    """A random hierarchy whose boxes need not bound their points: each is
    the members' bounding box, sometimes grown, and now and then inverted
    (``lo > hi``) on one axis."""
    dim = points.shape[1]
    sub = points[ids] if len(ids) else rng.normal(size=(1, dim))
    lo = sub.min(axis=0) - rng.choice([0.0, 0.0, 0.5], size=dim)
    hi = sub.max(axis=0) + rng.choice([0.0, 0.0, 0.5], size=dim)
    if rng.random() < 0.2:
        axis = rng.integers(dim)
        lo[axis], hi[axis] = hi[axis] + 0.1, lo[axis]
    if depth == 0 or len(ids) <= 3:
        return TreeNode(lo, hi, ids=np.asarray(ids, dtype=np.int64))
    parts = np.array_split(rng.permutation(ids), int(rng.integers(2, 4)))
    children = [arbitrary_tree(rng, points, part, depth - 1) for part in parts]
    return TreeNode(lo, hi, children=children)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_on_arbitrary_boxes(seed, metric):
    """Wholesale decisions rest on the box geometry alone, so they must
    hold for any boxes; an inverted box is classified member by member."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 3
    points = np.round(rng.normal(size=(int(rng.integers(20, 80)), dim)) * 2) / 2
    root = arbitrary_tree(rng, points, np.arange(len(points)), depth=4)
    root.finalize_counts()
    assert_matches_reference(
        flatten_tree(root), points, metric, [0.5, 1.0, 1.5, 2.5, 4.0],
        context=f"arbitrary/{metric}/seed={seed}",
    )
