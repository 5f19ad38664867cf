"""Tree δ kernel vs the kept reference: bit identity, carried answers, streams.

``repro.indexes.kernels.tree_delta_batched`` moves its queries as groups
(the members of one leaf, and non-members by a caller's key) and accepts a
carried-in ``(best_d, best_id)`` per query, starting its search with that
radius; the append repair uses it to search an image of the points that
changed with each old point's previous answer, grouped by the point's leaf
of the index image and skipping the candidates that were denser before.
The contracts checked here:

* without a carry-in, δ, μ *and* every
  :class:`~repro.indexes.base.IndexStats` counter equal the per-query
  kernel kept in ``tests/tree_delta_reference.py``, whatever the grouping
  (own leaf, random caller keys, one group of every query, all singles) and
  however an execution backend chunks the queries;
* with one, δ and μ equal the reference's answer merged with the carried
  one by ``merge_delta_candidates`` (lexicographic ``(distance, id)``);
* a random ``StreamingDPC`` stream, and a tie-heavy one (lattice points
  and duplicates), equals a fresh fit after every batch, and every answer
  after the first per cut-off comes from the exact repair
  (``quantities_after_append``), not from a full run.

Axes: every tree family × every rect-bounds metric × both tie-breaks ×
both pruning knobs, on corpora with duplicate points (δ ties at distance 0)
and lattice points (ρ ties), several density orders in one call
(multi-order ``qord``) and rows with ``own_leaf = -1`` (queries that are not
members of the image: images over point subsets, built with
``_image_over`` as the repair builds them).
"""

import numpy as np
import pytest

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.extras import StreamingDPC
from repro.geometry.distance import get_metric
from repro.indexes.base import IndexStats
from repro.indexes.kernels import density_order_key, tree_delta_batched
from repro.indexes.registry import make_index

from tests.tree_delta_reference import merge_delta_candidates, reference_tree_delta

#: Small node capacities so every tree has several levels.
FAMILIES = {
    "kdtree": {"leaf_size": 6},
    "quadtree": {"capacity": 6},
    "rtree": {"max_entries": 5},
}

METRICS = ("euclidean", "sqeuclidean", "manhattan", "chebyshev", "minkowski[p=3]")

TIE_BREAKS = ("id", "strict")

#: (density_pruning, distance_pruning) — the Lemma 1 / Lemma 2 knobs.
PRUNING = [(True, True), (False, True), (True, False)]


def corpus(seed: int) -> np.ndarray:
    """Duplicates, an integer lattice and a blob, in shuffled order."""
    r = np.random.default_rng(seed)
    blob = r.normal(0.0, 1.0, size=(30, 2))
    lattice = r.integers(-2, 3, size=(25, 2)).astype(np.float64)
    pts = np.concatenate([blob, blob[:10], lattice, np.round(blob[10:25], 1)])
    return pts[r.permutation(len(pts))]


def cutoffs(metric: str) -> "list[float]":
    """Three cut-offs, in the metric's own units."""
    dcs = [0.4, 0.9, 1.7]
    return [d * d for d in dcs] if metric == "sqeuclidean" else dcs


def sweep_queries(index, metric, tie_break):
    """Density rows and the concatenated non-peak queries of three orders."""
    orders = [DensityOrder(index.rho_all(dc), tie_break) for dc in cutoffs(metric)]
    rho_rows = np.asarray([o.rho for o in orders])
    key_rows = np.asarray([density_order_key(o) for o in orders])
    qid, qord = [], []
    for o, order in enumerate(orders):
        peak = np.zeros(index.n, dtype=bool)
        peak[order.global_peaks()] = True
        qid.append(np.flatnonzero(~peak))
        qord.append(np.full(len(qid[-1]), o, dtype=np.int64))
    return rho_rows, key_rows, np.concatenate(qid), np.concatenate(qord)


def own_leaves(image, ids, qid, rng):
    """Each query's leaf of ``image``, an image over ``points[ids]`` (its
    ``leaf_node_of`` is indexed by position in ``ids``), ``-1`` for
    non-members and for a random quarter."""
    at = np.full(int(max(ids.max(), qid.max())) + 1, -1, dtype=np.int64)
    at[ids] = np.arange(len(ids))
    own = np.full(len(qid), -1, dtype=np.int64)
    member = at[qid] >= 0
    own[member] = image.leaf_node_of[at[qid[member]]]
    own[rng.random(len(qid)) < 0.25] = -1
    return own


def images(family, metric, points):
    """``(name, image, member ids, index)`` for a plain fit and for images
    over a random 60 % of the points and over the rest."""
    index = make_index(family, metric=metric, **FAMILIES[family]).fit(points)
    ids = np.random.default_rng(len(points)).permutation(len(points))
    cut = int(len(points) * 0.6)
    part, rest = np.sort(ids[:cut]), np.sort(ids[cut:])
    return [
        ("fit", index._flat_tree(), np.arange(len(points)), index),
        ("subset", index._image_over(index.points, part), part, index),
        ("rest", index._image_over(index.points, rest), rest, index),
    ]


def run_reference(image, index, args, own_leaf, pruning):
    rho_rows, key_rows, qid, qord = args
    stats = IndexStats()
    ref = reference_tree_delta(
        image, index.points, qid, qord, rho_rows, key_rows,
        get_metric(index.metric), stats, *pruning, own_leaf=own_leaf,
    )
    return ref, stats


def run_kernel(image, index, args, own_leaf, pruning, carry=None, group=None):
    rho_rows, key_rows, qid, qord = args
    stats = IndexStats()
    got = tree_delta_batched(
        image, index.points, qid, qord, rho_rows, key_rows,
        get_metric(index.metric), stats, *pruning, own_leaf=own_leaf,
        carry=carry, group=group,
    )
    return got, stats


def one_order(args):
    """The queries of the first density order alone."""
    rho_rows, key_rows, qid, qord = args
    first = qord == 0
    return rho_rows, key_rows, qid[first], qord[first]


def groupings(image, ids, args, n, rng):
    """``(name, args, own_leaf, group)``: the kernel's ways of grouping the
    queries.  Members by their own leaf (``None``: looked up in the image),
    non-members single or by random caller keys; every query in one group
    (per density order: groups never span orders, so also over one order
    alone); and every query single."""
    qid = args[2]
    own = own_leaves(image, ids, qid, rng)
    first = one_order(args)
    alone = np.full(len(qid), -1, dtype=np.int64)
    one_key = np.zeros(n, dtype=np.int64)
    cases = [
        ("own-leaf", args, own, None),
        ("caller-keys", args, own, rng.integers(0, 3, size=n)),
        ("one-group-per-order", args, alone, one_key),
        ("one-group", first, np.full(len(first[2]), -1, dtype=np.int64), one_key),
        ("singles", args, alone, None),
    ]
    if len(ids) == n:  # the default lookup needs every query to be a member
        cases.append(("default", args, None, None))
    return cases


@pytest.mark.parametrize("pruning", PRUNING, ids=str)
@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matches_reference_without_carry(family, metric, tie_break, pruning):
    points = corpus(7)
    rng = np.random.default_rng(1)
    for name, image, ids, index in images(family, metric, points):
        args = sweep_queries(index, metric, tie_break)
        refs = {}  # the reference does not group: one run per query set
        for grouping, q_args, own_leaf, group in groupings(
            image, ids, args, index.n, rng
        ):
            key = (id(q_args), None if own_leaf is None else own_leaf.tobytes())
            if key not in refs:
                refs[key] = run_reference(image, index, q_args, own_leaf, pruning)
            ref, s_ref = refs[key]
            got, s_new = run_kernel(
                image, index, q_args, own_leaf, pruning, group=group
            )
            where = f"{family}/{metric}/{tie_break}/{pruning}/{name}/{grouping}"
            np.testing.assert_array_equal(got[0], ref[0], err_msg=f"delta {where}")
            np.testing.assert_array_equal(got[1], ref[1], err_msg=f"mu {where}")
            assert s_new.as_dict() == s_ref.as_dict(), where


CHUNK_METRICS = ("euclidean", "manhattan", "chebyshev")


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("metric", CHUNK_METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chunks_that_split_groups_keep_every_counter(family, metric, tie_break):
    """Chunks of 3 and 11 queries cut the leaves' groups apart: each chunk
    groups its own share of a leaf, and every counter still equals the
    serial run's (a multi-cut-off sweep, so three density orders)."""
    points = corpus(9)
    dcs = cutoffs(metric)
    spec = dict(FAMILIES[family], metric=metric)
    serial = make_index(family, **spec).fit(points)
    want = serial.quantities_multi(dcs, tie_break)
    want_stats = serial.stats().as_dict()
    for chunk in (3, 11):
        threaded = make_index(
            family, backend="threads", n_jobs=2, chunk_size=chunk, **spec
        ).fit(points)
        try:
            got = threaded.quantities_multi(dcs, tie_break)
            got_stats = threaded.stats().as_dict()
        finally:
            threaded.release_execution()
        for a, b in zip(got, want):
            for field in ("rho", "delta", "mu"):
                np.testing.assert_array_equal(
                    getattr(a, field), getattr(b, field),
                    err_msg=f"{field} chunk={chunk}",
                )
        assert got_stats == want_stats, f"chunk={chunk}"


def carried_answers(ref_d, ref_mu, n, rng):
    """Per query: nothing, a strictly better or worse answer, or one tied
    with the reference's distance under a smaller or larger id."""
    m = len(ref_d)
    kind = rng.integers(0, 5, size=m)
    d = np.full(m, np.inf)
    mu = np.full(m, NO_NEIGHBOR, dtype=np.int64)
    finite = np.isfinite(ref_d)
    base_d = np.where(finite, ref_d, 1.0)
    pick = rng.integers(0, n, size=m)
    better = kind == 1
    d[better], mu[better] = base_d[better] * 0.5, pick[better]
    worse = kind == 2
    d[worse], mu[worse] = base_d[worse] * 2.0 + 0.1, pick[worse]
    for k, step in ((3, -1), (4, 1)):  # ties: the id decides
        tie = kind == k
        d[tie] = base_d[tie]
        mu[tie] = np.clip(np.where(finite, ref_mu, pick)[tie] + step, 0, n - 1)
    return d, mu


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_carry_matches_merged_reference(family, metric, tie_break):
    points = corpus(8)
    rng = np.random.default_rng(2)
    for name, image, ids, index in images(family, metric, points):
        args = sweep_queries(index, metric, tie_break)
        own_leaf = own_leaves(image, ids, args[2], rng)
        for pruning in PRUNING:
            ref, _ = run_reference(image, index, args, own_leaf, pruning)
            carry = carried_answers(ref[0], ref[1], index.n, rng)
            kept = (carry[0].copy(), carry[1].copy())
            want = merge_delta_candidates(ref[0], ref[1], *carry)
            # Carried-in groups descend until every member prunes a node:
            # non-members single, and grouped by random caller keys.
            for group in (None, rng.integers(0, 3, size=index.n)):
                got, _ = run_kernel(
                    image, index, args, own_leaf, pruning, carry, group
                )
                where = f"{family}/{metric}/{tie_break}/{pruning}/{name}"
                where += "/grouped" if group is not None else ""
                np.testing.assert_array_equal(got[0], want[0], err_msg=f"delta {where}")
                np.testing.assert_array_equal(got[1], want[1], err_msg=f"mu {where}")
                # The carried arrays are inputs, not outputs.
                np.testing.assert_array_equal(carry[0], kept[0])
                np.testing.assert_array_equal(carry[1], kept[1])


def test_previous_order_needs_a_carry():
    index = make_index("kdtree", leaf_size=4).fit(corpus(3))
    rho_rows, key_rows, qid, qord = sweep_queries(index, "euclidean", "id")
    with pytest.raises(ValueError, match="carried-in"):
        tree_delta_batched(
            index._flat_tree(), index.points, qid, qord, rho_rows, key_rows,
            get_metric("euclidean"), IndexStats(),
            prev_key=np.zeros(index.n),
        )


def test_carry_on_empty_query_set_passes_through():
    index = make_index("kdtree", leaf_size=4).fit(corpus(3))
    args = sweep_queries(index, "euclidean", "id")
    empty = np.zeros(0, dtype=np.int64)
    d, mu = tree_delta_batched(
        index._flat_tree(), index.points, empty, empty, args[0], args[1],
        get_metric("euclidean"), IndexStats(),
        carry=(np.zeros(0), np.zeros(0, dtype=np.int64)),
    )
    assert d.shape == mu.shape == (0,)


def stream_points(seed: int) -> np.ndarray:
    """Arrivals that repeat earlier points and sit on a lattice."""
    r = np.random.default_rng(seed)
    pts = [r.normal(0.0, 1.0, size=(40, 2))]
    for _ in range(12):
        k = int(r.integers(1, 20))
        new = r.normal(0.0, 1.2, size=(k, 2))
        seen = np.concatenate(pts)
        dup = r.random(k) < 0.3
        new[dup] = seen[r.integers(0, len(seen), size=int(dup.sum()))]
        lat = r.random(k) < 0.2
        new[lat] = np.round(new[lat])
        pts.append(new)
    return pts


FIELDS = ("rho", "delta", "mu")


def spied_factory(family, metric, **params):
    """An index factory, and the list of point counts at which its indexes
    ran a full ``quantities`` — the path a stream takes instead of a repair."""
    full_runs = []

    def factory():
        index = make_index(family, metric=metric, **params)
        full = index.quantities

        def quantities(*args, **kwargs):
            full_runs.append(index.n)
            return full(*args, **kwargs)

        index.quantities = quantities
        return index

    return factory, full_runs


def drive(stream, batches, asks, fresh, tie_break):
    """Feed ``batches``; after batch ``i`` ask each cut-off in ``asks(i)`` and
    compare the answer with a fresh fit.

    Returns ``(n_asks, n_first)``: answers asked for, and how many of them
    were a cut-off's first answer (which a repair cannot serve).  Every
    answer handed out must stay as it was.
    """
    asked = set()
    returned = []
    for i, batch in enumerate(batches):
        stream.add(batch)
        want_index = fresh().fit(stream.points())
        for dc in asks(i):
            asked.add(dc)
            got = stream.quantities(dc, tie_break)
            want = want_index.quantities(dc, tie_break)
            for field in FIELDS:
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(want, field),
                    err_msg=f"{field} after batch {i}, dc={dc}",
                )
            returned.append((got, [getattr(got, f).copy() for f in FIELDS]))
    for got, kept in returned:
        for field, before in zip(FIELDS, kept):
            np.testing.assert_array_equal(getattr(got, field), before, err_msg=field)
    return len(returned), len(asked)


#: The configurations the repair runs for: every family's default build,
#: and the two that fit through the object graph (their images of the new
#: and the changed points are bulk-built all the same).
REPAIRED = {
    **{family: (family, spec) for family, spec in FAMILIES.items()},
    "kdtree-objects": ("kdtree", {"leaf_size": 6, "build": "objects"}),
    "rtree-dynamic": ("rtree", {"max_entries": 5, "packing": "dynamic"}),
}


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("config", sorted(REPAIRED))
def test_stream_equals_fresh_fit_after_every_batch(config, metric, tie_break):
    family, spec = REPAIRED[config]
    factory, full_runs = spied_factory(family, metric, **spec)
    stream = StreamingDPC(index_factory=factory)
    seed = sorted(REPAIRED).index(config) + 10 * len(metric)
    n_asks, n_first = drive(
        stream, stream_points(seed), lambda i: (0.3, 0.8),
        lambda: make_index(family, metric=metric, **spec), tie_break,
    )
    # Only first answers ran in full; every other answer was a repair.
    assert len(full_runs) == n_first < n_asks


def tie_heavy_points(seed: int) -> "list[np.ndarray]":
    """Lattice arrivals, many repeating an earlier point: ρ ties everywhere
    (strict orders rank whole plateaus equal) and δ ties at distance 0."""
    r = np.random.default_rng(seed)
    pts = [r.integers(-3, 4, size=(30, 2)).astype(np.float64)]
    for _ in range(10):
        k = int(r.integers(1, 16))
        new = r.integers(-3, 4, size=(k, 2)).astype(np.float64)
        seen = np.concatenate(pts)
        dup = r.random(k) < 0.4
        new[dup] = seen[r.integers(0, len(seen), size=int(dup.sum()))]
        new[r.random(k) < 0.2] += 0.5
        pts.append(new)
    return pts


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("config", sorted(REPAIRED))
def test_tie_heavy_stream_equals_fresh_fit_after_every_batch(config, tie_break):
    """The repair skips every candidate that was denser than the query in
    the previous order: on a lattice, points that tied before and overtook
    now must still be found."""
    family, spec = REPAIRED[config]
    factory, full_runs = spied_factory(family, "euclidean", **spec)
    stream = StreamingDPC(index_factory=factory)
    n_asks, n_first = drive(
        stream, tie_heavy_points(51 + sorted(REPAIRED).index(config)),
        lambda i: (1.1, 2.3), lambda: make_index(family, **spec), tie_break,
    )
    assert len(full_runs) == n_first < n_asks


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_repair_spans_several_batches(family, tie_break):
    """One cut-off asked every other batch, and right after one-point adds:
    a repair then folds several batches (or a single point) at once."""
    spec = FAMILIES[family]
    factory, full_runs = spied_factory(family, "euclidean", **spec)
    stream = StreamingDPC(index_factory=factory)
    batches = stream_points(31 + sorted(FAMILIES).index(family))
    for at in (3, 8, 9):
        batches.insert(at, batches[at - 1][-1:])  # a duplicate, one point
    one_point = {i for i, b in enumerate(batches) if len(b) == 1}
    n_asks, n_first = drive(
        stream, batches,
        lambda i: (0.5,) if i % 2 == 0 or i in one_point else (),
        lambda: make_index(family, **spec), tie_break,
    )
    assert len(full_runs) == n_first < n_asks


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize(
    "family, params",
    [("kdtree", {"leaf_size": 6, "frontier": "heap"}),
     ("quadtree", {"capacity": 6, "frontier": "stack"}),
     ("quadtree", {"capacity": 6, "max_depth": 40})],
    ids=["kdtree-heap", "quadtree-stack", "quadtree-deep"],
)
def test_configurations_without_a_repair_answer_in_full(family, params, tie_break):
    """The per-object reference frontiers are what the batched engine is
    checked against, so the repair (which runs that engine) leaves them
    alone; a quadtree deeper than a Morton key has no bulk build for the
    repair's images.  Every answer a full run, still exact."""
    factory, full_runs = spied_factory(family, "euclidean", **params)
    stream = StreamingDPC(index_factory=factory)
    n_asks, _ = drive(
        stream, stream_points(41)[:8], lambda i: (0.3, 0.8),
        lambda: make_index(family, **params), tie_break,
    )
    assert len(full_runs) == n_asks
