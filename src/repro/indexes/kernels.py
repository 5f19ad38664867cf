"""Vectorized query kernels shared by every index family.

The paper's workload is *many* queries over one frozen structure: every
``dc`` trial re-runs ρ over all ``n`` objects, and each ρ is a binary search
(List/CH) or a container classification (grid/trees).  The seed
implementation answered them one object at a time from Python; this module
provides the batched, array-level building blocks the indexes now share:

* :func:`bounded_searchsorted` — one binary search per *range* of a
  CSR-layout flat array, all ranges advanced together (``O(log m)``
  mask-free numpy passes instead of ``n`` Python ``np.searchsorted``
  calls).  Broadcasts over a grid of ranges and needles, which is what
  makes every list-family ρ query one call (whole rows for the List and
  RN-List, histogram sections for CH and RN-CH), and builds the CH and
  RN-CH histograms (Algorithm 3: bin ``k`` of a row is the search for its
  stored edge).  When every range has one length (the complete N-Lists of
  the List index) it skips the per-pass bounds check.
* :func:`argsort_rows` — every row of a 2-D block sorted as unique
  integer keys (a value's bits, its lowest bits replaced by its column) by
  NumPy's SIMD sort, checked, with the stable argsort for the rows the keys
  cannot order: the stable sort's answer at the SIMD sort's speed.  It
  builds and appends the N-List rows.
* :func:`scan_first_denser` / :func:`prefetch_scan_block` — the blockwise
  near-to-far "first denser neighbour" scan behind Algorithm 2's δ query,
  over CSR rows, in column blocks of geometrically growing width (a
  logarithmic number of numpy passes even for a row that walks its whole
  list); the prefetched first block can be reused across the ``dc`` values
  of a sweep.
* :func:`bin_edges` / :func:`target_bins` / :func:`histogram_sections` —
  Algorithm 4's narrowing of the ρ search: the stored edge grid, each
  cut-off's target bin in it (exact in floating point), and the section of
  every row that bin leaves to search, empty where a bin already holds the
  answer.
* :func:`tree_rho_batched` / :func:`grid_rho_batched` — Algorithm 5's ρ
  query (Observation 1) for many queries at once; the tree kernel decides
  whole leaves of queries per node, described below.
* :func:`tree_delta_batched` / :func:`grid_delta_batched` /
  :func:`peak_delta_sweep` — the **batched δ engine** (Algorithm 6 and its
  grid analogue), described below; the tree kernel moves leaves of queries
  as groups too.

Exactness contract
------------------
Each kernel reaches, per row, the decisions of the scalar code it replaced
with the same arithmetic, so results stay bit-for-bit identical to
``naive_quantities`` and the :class:`~repro.indexes.base.IndexStats`
counters keep their seed semantics (a binary search per object, a scanned
entry per examined list slot, ...).  "Examined" follows the kernel's
schedule: the list scan examines a row block by block, and every slot of
the block that resolves the row counts, so the wider geometric blocks count
a few more slots than a scan that stopped at the first denser entry.

The leaf-grouped ρ kernel
-------------------------
:func:`tree_rho_batched` moves the queries that share a leaf of the tree
as one group, boxed by the min/max of their coordinates.  Observation 1
classifies a node as discarded, fully contained or intersected; a group
takes the decision for all its members when the metric's own box bound,
evaluated at one well-chosen *real point* of the group box (the point
nearest the node for "discarded", the corner farthest from it for
"contained"), already settles it.  The box kernels are monotone in every
per-axis gap and reach, also under rounding, so that point's value bounds
every member's, and each member would have decided the same on its own.
The other pairs are classified member by member; a group whose members all
intersect an inner node stays a group for its children.  Queries that are
not members of the image group by a key the caller gives (the append repair
groups the old points by their leaf of the index image when it counts them
in an image of the new points); the argument needs only the box of the
group's points, so any grouping is sound.  Intersected
leaves are scanned from fixed-width padded rows of leaf coordinates (width:
the median leaf size; an oversized leaf spans several rows), through
``paired_distances`` like every other distance in the package.  ρ and
every probe counter equal the per-``(query, node)`` traversal, which the
test suite keeps as the reference.

The batched δ engine (frontier-batched best-first search)
---------------------------------------------------------
:func:`tree_delta_batched` replaces the per-object best-first search of
Algorithm 6 with a *level-synchronous* traversal over a flattened
(structure-of-arrays) tree image (:func:`flatten_tree`): the frontier is a
flat array of unresolved ``(query, node)`` pairs, advanced one tree level
per Python step — child expansion, rectangle bounds, and both prunings are
single vectorised operations over the whole pair array (per-row boxes
through the metric's ``rect_*_many`` kernels).  Pruning stays exactly the
paper's two lemmas, applied element-wise over the pairs:

* **Lemma 1 (density)** — drop ``(query, child)`` pairs with
  ``maxrho < ρ(p)`` (equality kept, so id tie-breaking stays exact);
* **Lemma 2 (distance)** — drop pairs whose ``mindist`` strictly exceeds
  the query's pruning radius.  The radius is ``min(best_d, ub)`` where
  ``best_d`` is the best leaf candidate so far and ``ub`` is a sound upper
  bound gathered top-down: any node with ``maxrho`` *strictly above* ρ(p)
  certainly contains a denser object, so its ``maxdist`` bounds δ(p) before
  a single leaf has been scanned.  Pruning uses strict ``>`` against the
  radius, hence a subtree that could still *tie* the best distance (and win
  the smaller-id tie-break) is never discarded — results are bit-identical
  to the per-object reference traversal.

**Leaf groups.** As in the ρ kernel, the queries travel as groups where
they can: the members of one leaf of the image within one density-order
row, and non-members by a key the caller gives (the append repair groups
the old points by their leaf of the index image).  They prune with the
per-node subtree maximum density (:func:`flat_tree_maxrho`), the node
annotation of the priority-search kd-tree of Huang, Yu and Shun (*Faster
Parallel Exact Density Peaks Clustering*, arXiv:2305.11335).  A
``(group, node)`` pair carries a lower and an upper bound on its members'
``mindist`` to the node — the metric's box kernel at the group-box point
nearest the node and at the one farthest from it, gap-wise — and the
group's smallest and largest ρ and radius decide it for every member at
once:

* Lemma 1 drops a child for every member when its ``maxrho`` is below the
  group's smallest ρ; when it is at least the largest, no member drops it
  and the group stays whole; otherwise the group splits into single
  queries, which take the per-query step;
* Lemma 2 re-checks a pair on arrival, as the per-query traversal does: it
  is dropped for every member when the nearest bound exceeds every radius,
  stays a group when the farthest is within every radius, and splits
  otherwise.  Checking Lemma 2 only on arrival loses nothing: a child it
  prunes at expansion it prunes on arrival too (the radii only shrink),
  and either way the pair counts once as a distance prune;
* the ``maxdist`` bound of a surely-denser child still tightens each denser
  member's radius, unless a lower bound of every member's ``maxdist`` (per
  axis the reach from the group box's side nearest the node's centre)
  already reaches every radius;
* a group reaching a leaf splits: each member orders its leaves by its own
  ``mindist`` (the waves below).  Equal ``mindist`` keep the per-query
  frontier's node-id order.

Without a carry-in every query therefore meets every node with the
decisions of the per-query traversal kept in
``tests/tree_delta_reference.py``: δ, μ and every counter equal it, however
the queries are grouped or an execution backend chunks them.

Leaves (and grid cells) resolve through one paired-distance evaluation
(:func:`repro.geometry.distance.paired_distances` — bit-identical
arithmetic to ``cross``) over the expanded ``(query, member)`` pairs,
followed by segment ``minimum.reduceat`` reductions that reproduce the
reference's ``np.lexsort((cand, d))[0]`` smaller-id tie-break exactly.
Queries carry an ``order row`` index, so one engine invocation *can*
advance the queries of several density orders at once; the production
multi-``dc`` sweep (``delta_all_multi``) shares the flattened image, one
vectorised all-orders ``maxrho`` annotation (:func:`flat_tree_maxrho`, one
``reduceat`` per tree level) and a deduplicated peak sweep, but runs the
traversal per order — smaller pair arrays and the single-order gather
fast paths measured faster than one interleaved union traversal.

**Counter semantics in batched mode:** the engine counts per *block-visit*
element — ``nodes_visited`` increments by the number of queries in the
block that actually visit the node, ``nodes_pruned_density`` /
``nodes_pruned_distance`` by the number of pruned ``(query, node)`` pairs,
``objects_scanned`` by ``block × leaf`` pairs and ``distance_evals`` by the
exact number of distances computed.  These are the same per-object totals
the paper's figures aggregate, but the traversal *schedule* differs from
the scalar reference (level-synchronous vs depth-first), so per-object
counter values are not reproduced term-for-term — use the ``"heap"`` /
``"stack"`` reference frontiers when the scalar schedule itself matters.

**Carried-in answers.** :func:`tree_delta_batched` can start from an answer
already known per query (``carry``: the best ``(distance, id)`` over some
other point set).  The carried distance is the starting radius and the
carried pair the starting best, so the search returns the lexicographic
``(distance, id)`` minimum of the carried answer and this image's
candidates — the merge of two independent searches.  It stays exact
because Lemma 2 prunes a node only when its ``mindist`` is *strictly* above
the radius: such a node holds no point at a distance ≤ the carried one, so
none that could beat it, not even on the smaller-id tie-break.  The append
repair carries a point's previous answer into a search of an image of the
points that changed, so most of that search is pruned before it starts.

With a carry-in a radius is near-final from the start, so the search takes
the cheaper schedule: groups descend while any member needs a node (never
splitting above the leaves) and resolve member by member at the leaves,
without waves.  The repair also passes the *previous order* (``prev_key``,
new points last): the carried μ is the nearest of the points that were
denser than the query before the append, and their distances have not
changed, so only a new point or one that overtook the query can beat it.
Every other candidate is skipped per pair, and a node whose every point was
denser than the query before is pruned (:func:`flat_tree_maxrho` over
``prev_key``, ``+inf`` for new points) — for a whole group when that holds
for all its members.  The counters count the work actually done, less
than the same search without the carried answers; without a carry-in
every counter equals the reference's.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR
from repro.geometry.distance import (
    cross_blocks,
    get_metric,
    paired_distances,
    rect_bounds_many,
)

__all__ = [
    "bounded_searchsorted",
    "argsort_rows",
    "prefetch_scan_block",
    "scan_first_denser",
    "bin_edges",
    "target_bins",
    "histogram_sections",
    "peak_delta_sweep",
    "density_order_key",
    "delta_multi_from_orders",
    "FlatTree",
    "flatten_tree",
    "flat_tree_maxrho",
    "tree_rho_batched",
    "tree_delta_batched",
    "grid_rho_batched",
    "grid_delta_batched",
]


def bounded_searchsorted(
    values: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    needles,
    side: str = "left",
) -> np.ndarray:
    """Vectorised per-row binary search over a flat CSR values array.

    For every broadcast element ``i``, returns the insertion position of
    ``needles[i]`` into the sorted slice ``values[starts[i]:stops[i]]`` as an
    **absolute** index into ``values`` (subtract ``starts`` for the row-local
    position).  ``starts``/``stops``/``needles`` broadcast together, so one
    call can answer an ``(n_rows, n_needles)`` grid — the multi-``dc`` path.

    Equivalent to ``starts[i] + np.searchsorted(values[starts[i]:stops[i]],
    needles[i], side)`` for every ``i``, in ``O(log max_row)`` numpy passes.

    The search is binary lifting over the count of row entries before the
    needle: starting from 0, each pass tries to add one power of two
    (largest first), which costs one gather, one comparison and one add.
    Every element takes the same passes, so no mask of still-active
    elements is kept.  When the rows differ in length, each pass also
    checks that the probe stays inside its row (a probe past a row's end
    is clamped into the array and its answer discarded).  When every row
    has one length ``m`` — the complete rows of the exact List index — no
    probe can leave its row and the check is skipped: the
    first probe (at the largest power of two ``2^j ≤ m``) leaves a range of
    ``2^j`` candidate counts, and each later pass halves it.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=np.int64)
    needles = np.asarray(needles)
    length = np.asarray(stops, dtype=np.int64) - starts
    shape = np.broadcast_shapes(length.shape, needles.shape)
    max_len = int(length.max()) if length.size else 0
    if max_len <= 0:
        return np.broadcast_to(starts, shape).copy()
    before = np.less if side == "left" else np.less_equal
    step = 1 << (max_len.bit_length() - 1)
    if length.min() == max_len:
        lo = np.broadcast_to(starts, length.shape)
        # The count of entries before the needle is < step, or in
        # [max_len - step + 1, max_len]: either way a range the halving
        # steps cover.  ``pos`` is absolute, so its next probe, the entry
        # ``step`` places on (1-based), sits at pos + step - 1.
        pos = np.where(
            before(values[lo + (step - 1)], needles), lo + (max_len - step + 1), lo
        )
        step >>= 1
        while step:
            pos += before(values[pos + (step - 1)], needles) * step
            step >>= 1
        return pos
    lo, length, needles = np.broadcast_arrays(starts, length, needles)
    pos = np.zeros(shape, dtype=np.int64)
    base = lo - 1  # base + c is the flat index of a row's c-th entry (1-based)
    last = len(values) - 1
    while step:
        nxt = pos + step
        idx = np.minimum(base + nxt, last)
        take = before(values[idx], needles)
        take &= nxt <= length
        pos += take * step
        step >>= 1
    return lo + pos


def argsort_rows(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort every row of a float64 array: ``(order, sorted)``, ties by column.

    Returns what ``order = np.argsort(values, axis=1, kind="stable")`` and
    ``np.take_along_axis(values, order, axis=1)`` return: equal values in
    ascending column order.  Each row is sorted as unique integer keys by
    :func:`_key_sort` (several times faster than the stable timsort); a row
    the keys cannot order is sorted again by the stable argsort.
    """
    values = np.asarray(values, dtype=np.float64)
    order, srt, unordered = _key_sort(values)
    if len(unordered):
        sub = values[unordered]
        sub_order = np.argsort(sub, axis=1, kind="stable")
        order[unordered] = sub_order
        srt[unordered] = np.take_along_axis(sub, sub_order, axis=1)
    return order, srt


def _key_sort(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, sorted, unordered)``: each row of ``values`` sorted as
    unique integer keys, and the rows whose result is not the stable order.

    A key is the bits of a value with its lowest bits replaced by its
    column, sorted by NumPy's SIMD sort (faster than an argsort, which
    carries its indices along).  Non-negative floats order as their bits do
    and equal ones share their bits, so the keys give the stable order,
    unless two values differ only in the replaced bits (a relative gap
    below 2^-40 for rows of 4,096) or the row holds a negative value, -0.0
    or NaN.  Each row's result is checked pair by pair.
    """
    width = values.shape[1]
    low = (1 << max(width - 1, 0).bit_length()) - 1  # the column's bits
    order = values.view(np.int64) & ~low
    order |= np.arange(width)
    order.sort(axis=1)
    order &= low
    # take_along_axis, as one flat take (twice as fast): the order is
    # offset to flat indices in place, and back.
    flat = np.arange(len(values))[:, None] * width
    order += flat
    srt = values.reshape(-1).take(order)
    order -= flat
    # A row is in the stable order when every neighbouring pair is in
    # (value, column) order.
    before, after = srt[:, :-1], srt[:, 1:]
    ok = (before < after) | ((before == after) & (order[:, :-1] < order[:, 1:]))
    return order, srt, np.flatnonzero(~ok.all(axis=1))


def prefetch_scan_block(
    offsets: np.ndarray, ids: np.ndarray, dists: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise the first ``width`` columns of every CSR row.

    Returns ``(cand, dist, valid)`` with shape ``(n, width)``; slots past a
    row's end are masked by ``valid``.  A sweep over many ``dc`` values can
    gather this once and hand it to every :func:`scan_first_denser` call —
    the candidate layout does not depend on the density ordering.

    ``width`` is honoured exactly (never clamped to the batch's longest
    row): the scan's column boundaries must depend only on the requested
    geometry, so a sharded run over row subsets examines precisely the
    slots the whole-batch run would — the execution-backend bit-identity
    contract (:mod:`repro.indexes.parallel`).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lengths = np.diff(offsets)
    width = int(width)
    cols = np.arange(width, dtype=np.int64)
    valid = cols[None, :] < lengths[:, None]
    flat = np.where(valid, offsets[:-1, None] + cols[None, :], 0)
    if len(ids):
        cand = ids[flat]
        dist = dists[flat]
    else:
        cand = np.zeros_like(flat)
        dist = np.zeros(flat.shape, dtype=np.float64)
    return cand, dist, valid


#: List or leaf slots one scan block gathers at once: the passes of
#: :func:`scan_first_denser` and the leaf scans of :func:`tree_rho_batched`
#: (bounds a block's temporaries to a few MB whatever the batch size).
_SCAN_SLOTS = 1 << 17


def scan_first_denser(
    offsets: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    key: np.ndarray,
    block: int = 32,
    prefetch: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    qid: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Blockwise near-to-far scan for the first denser neighbour per row.

    ``key`` encodes the density total order: object ``q`` is denser than
    ``p`` iff ``key[q] < key[p]`` (use ``order.rank`` for
    :data:`~repro.core.quantities.TieBreak.ID`, ``-order.rho`` for STRICT).
    Rows are the CSR rows of ``(offsets, ids, dists)`` — each sorted
    near-to-far, Algorithm 2 lines 7-13.

    The scan moves every unresolved row through column blocks of
    geometrically growing width: after the prefetched columns (if any),
    each block is as wide as the columns already scanned, and never
    narrower than ``block`` (boundaries ``P, P + max(block, P), ...`` for a
    prefetch of width ``P``; ``0, block, 2·block, 4·block, ...`` without
    one).  Theorem 1 lets almost every row resolve in its first entries;
    the few that do not — the cluster peaks, and a global peak that walks
    its whole list — finish in ``O(log(row length / block))`` passes
    instead of one pass per ``block`` columns.

    ``qid`` gives the global object id of each CSR row (default: row ``i``
    is object ``i``).  Passing a row *subset* plus its ids is how the
    execution backends shard the scan: the block boundaries are absolute —
    they depend on ``block`` and the prefetch width only, never on which
    rows share the batch — so every row examines exactly the slots it
    would in a whole-table run.

    Returns ``(delta, mu, resolved, scanned)``: per row the distance and id
    of the first denser neighbour (undefined ``delta`` and
    ``mu == NO_NEIGHBOR`` where ``resolved`` is False — the caller applies
    its own peak/truncation convention), plus the number of list slots
    examined (the ``objects_scanned`` stat): every slot of every block a
    row takes part in, up to the row's end — the block that resolves a row
    counts in full, also the slots after its first denser entry.

    ``prefetch`` (from :func:`prefetch_scan_block`) supplies pre-gathered
    first columns; the scan then starts at ``prefetch`` width.  Since almost
    every non-peak object resolves within the first few entries (Theorem 1),
    this removes the dominant gather from every call of a multi-``dc`` sweep.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    lengths = np.diff(offsets)
    key_q = key if qid is None else key[np.asarray(qid, dtype=np.int64)]
    delta = np.empty(n, dtype=np.float64)
    mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
    scanned = 0
    unresolved = np.arange(n)
    col = 0

    if prefetch is not None and n:
        cand, dmat, valid = prefetch
        width = cand.shape[1]
        denser = (key[cand] < key_q[:, None]) & valid
        scanned += int(valid.sum())
        found = denser.any(axis=1)
        if found.any():
            first = denser[found].argmax(axis=1)
            rows = np.flatnonzero(found)
            delta[rows] = dmat[found, first]
            mu[rows] = cand[found, first]
        unresolved = np.flatnonzero(~found)
        unresolved = unresolved[lengths[unresolved] > width]
        col = width

    while len(unresolved):
        width = max(block, col)
        stop = col + width
        # Chunking the rows bounds the gathers; it changes no row's slots.
        chunk = max(1, _SCAN_SLOTS // width)
        for a in range(0, len(unresolved), chunk):
            rows = unresolved[a : a + chunk]
            row_len = lengths[rows]
            # Columns at or past every row's end hold no slot to examine.
            cols = np.arange(col, min(stop, int(row_len.max())), dtype=np.int64)
            valid = cols[None, :] < row_len[:, None]
            flat = np.where(valid, offsets[rows][:, None] + cols[None, :], 0)
            denser = key[ids[flat]] < key_q[rows, None]
            denser &= valid
            scanned += int(np.minimum(row_len, stop).sum()) - col * len(rows)
            found = denser.any(axis=1)
            if found.any():
                hit = rows[found]
                flat_hit = flat[found, denser[found].argmax(axis=1)]
                delta[hit] = dists[flat_hit]
                mu[hit] = ids[flat_hit]
        # Rows resolved in this pass, or whose list is exhausted, are done.
        open_rows = (mu[unresolved] == NO_NEIGHBOR) & (lengths[unresolved] > stop)
        unresolved = unresolved[open_rows]
        col = stop

    return delta, mu, mu != NO_NEIGHBOR, scanned


def bin_edges(w: float, count: int) -> np.ndarray:
    """The stored edge grid of the cumulative histograms: ``fl(w·(k+1))``,
    the upper edge of bin ``k``, for ``k < count``."""
    return w * np.arange(1, count + 1, dtype=np.float64)


def target_bins(edges: np.ndarray, dcs) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 4's target bin of every cut-off, and whether it sits on a
    stored edge: ``(bins, on_edge)``.

    ``bins[j]`` is the ``t`` with ``edges[t-1] <= dcs[j] < edges[t]``
    (``edges`` from :func:`bin_edges`; ``t = len(edges)`` past the grid),
    found by binary search in the grid itself.  It is exact in floating
    point: the histogram values were counted against these same products,
    where ``floor(dc / w)`` can miss the stored edge by one, and an
    astronomical or overflowing ``dc / w`` lands past the grid in
    ``O(log len(edges))``.  ``on_edge[j]`` is ``edges[t-1] == dcs[j]``: bin
    ``t-1`` then already counts every ``dist < dc``.
    """
    dcs = np.asarray(dcs, dtype=np.float64)
    bins = np.searchsorted(edges, dcs, side="right")
    return bins, edges[np.maximum(bins - 1, 0)] == dcs


def histogram_sections(
    hist_offsets: np.ndarray,
    hist_values: np.ndarray,
    bins: np.ndarray,
    on_edge: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 4's search range per row and cut-off: ``(first, last)``,
    row-local, of shape ``(rows, cut-offs)``.

    Rows are the CSR cumulative histograms ``(hist_offsets, hist_values)``
    (a contiguous slice of the offsets serves a row subset: the values are
    absolute positions into ``hist_values``); ``bins`` and ``on_edge`` come
    from :func:`target_bins`, one per cut-off.  The section is the entries
    between the two bins around the cut-off, the forced last bin for a
    target at the row's bin count.  It is empty, at the answer, where no
    search is needed:

    * on a stored edge below the forced last bin, bin ``t-1`` holds the
      count (the paper's O(1) edge answer; the forced last bin holds the
      whole row whatever the cut-off, so its ties must still be searched);
    * past the last bin (``t`` above the row's bin count) every entry is
      ``<= fl(w·size) < fl(w·t) <= dc``, so the whole row counts.
    """
    starts = np.asarray(hist_offsets[:-1], dtype=np.int64)[:, None]
    sizes = np.diff(hist_offsets)[:, None]
    lo_bin = np.minimum(bins, sizes - 1)
    last = hist_values[starts + lo_bin]
    first = np.where(lo_bin > 0, hist_values[starts + np.maximum(lo_bin - 1, 0)], 0)
    first = np.where(bins > sizes, last, first)
    last = np.where(on_edge & (bins < sizes), first, last)
    return first, last


# ---------------------------------------------------------------------------
# Batched δ engine (Algorithm 6, frontier-batched — see module docstring)
# ---------------------------------------------------------------------------


def peak_delta_sweep(
    points: np.ndarray,
    peaks: np.ndarray,
    metric,
    stats=None,
    block_elems: int = 4_000_000,
) -> np.ndarray:
    """δ of the global peak(s): ``max_q dist(p, q)`` per peak, one cross call.

    Replaces the per-peak ``distances_from`` loop (and the per-object
    ``p in peaks`` membership test around it) with a single blocked
    ``metric.cross`` over all peak rows.  Row maxima reduce the same flat
    distance values the scalar sweep produced, so the returned δ values are
    bit-identical.  Under :data:`~repro.core.quantities.TieBreak.ID` there is
    exactly one peak; STRICT mode on tie-heavy data can have many, hence the
    ``block_elems`` cap on the slab size.
    """
    peaks = np.asarray(peaks, dtype=np.int64)
    out = np.empty(len(peaks), dtype=np.float64)
    if len(peaks) == 0:
        return out
    for start, stop, block in cross_blocks(
        points[peaks], points, metric, block_elems=block_elems
    ):
        if stats is not None:
            stats.distance_evals += block.size
        out[start:stop] = block.max(axis=1)
    return out


def density_order_key(order) -> np.ndarray:
    """Total-order key of a :class:`~repro.core.quantities.DensityOrder`.

    ``q`` is denser than ``p``  ⟺  ``key[q] < key[p]``: the ``rank``
    permutation under the ID tie-break, ``-ρ`` under STRICT (ties then
    compare equal, exactly Eq. 2's strict reading).
    """
    from repro.core.quantities import TieBreak

    if order.tie_break is TieBreak.ID:
        return order.rank
    return -order.rho


def delta_multi_from_orders(
    points: np.ndarray,
    orders,
    run_engine,
    metric,
    stats,
):
    """Shared multi-order δ scaffolding for the batched engines.

    Builds the flattened non-peak query arrays over every density order,
    calls ``run_engine(qid, qord, rho_rows, key_rows) -> (delta_q, mu_q)``
    once for the whole sweep, resolves every distinct global peak with one
    blocked :func:`peak_delta_sweep`, and scatters the results back into
    per-order ``(delta, mu)`` pairs (element ``i`` bit-identical to a
    single-order run of ``orders[i]``).
    """
    n = len(points)
    rho_rows = np.asarray([order.rho for order in orders])
    key_rows = np.asarray([density_order_key(order) for order in orders])
    qid_parts, qord_parts, peak_parts = [], [], []
    for o, order in enumerate(orders):
        peaks = order.global_peaks()
        is_peak = np.zeros(n, dtype=bool)
        is_peak[peaks] = True
        qid_parts.append(np.flatnonzero(~is_peak))
        qord_parts.append(np.full(len(qid_parts[-1]), o, dtype=np.int64))
        peak_parts.append(peaks)
    delta_q, mu_q = run_engine(
        np.concatenate(qid_parts), np.concatenate(qord_parts), rho_rows, key_rows
    )
    all_peaks = np.concatenate(peak_parts)
    uniq_peaks, inverse = np.unique(all_peaks, return_inverse=True)
    peak_delta = peak_delta_sweep(points, uniq_peaks, metric, stats)

    out = []
    pos = 0
    peak_pos = 0
    for o in range(len(orders)):
        delta = np.empty(n, dtype=np.float64)
        mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        ids = qid_parts[o]
        delta[ids] = delta_q[pos : pos + len(ids)]
        mu[ids] = mu_q[pos : pos + len(ids)]
        pos += len(ids)
        peaks = peak_parts[o]
        delta[peaks] = peak_delta[inverse[peak_pos : peak_pos + len(peaks)]]
        peak_pos += len(peaks)
        out.append((delta, mu))
    return out


def _expand_csr(starts: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gather indices for variable-length CSR segments, concatenated.

    Returns ``(flat, seg_off)``: ``flat`` enumerates
    ``starts[i] .. starts[i] + sizes[i]`` for every segment back to back,
    ``seg_off[i]`` is where segment ``i`` begins inside ``flat`` (the
    ``reduceat`` boundaries).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    seg_off = np.cumsum(sizes) - sizes
    pos = np.arange(total, dtype=np.int64) - np.repeat(seg_off, sizes)
    return np.repeat(np.asarray(starts, dtype=np.int64), sizes) + pos, seg_off


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` along axis 0 (``np.take`` gathers rows several times faster
    than fancy indexing of a 2-D array)."""
    return np.take(a, idx, axis=0)


def _leaf_rows(flat: "FlatTree", points: np.ndarray):
    """Leaf coordinates as fixed-width padded rows, for ρ leaf scans.

    Every non-empty leaf gets ``ceil(size / width)`` consecutive rows of a
    ``(rows, width, d)`` array, its points in ``leaf_ids`` order, unused
    slots ``+inf`` (no distance to them is below a finite ``dc``).  The
    width is the median non-empty leaf size, so an oversized leaf (say a
    max-depth quadtree leaf of duplicates) spans several rows instead of
    widening every row to its size.

    Returns ``(slab, row_start, row_count, ids, owner)``: per node the first
    row and the row count (0 for inner and empty nodes), and per stored
    entry its point id and leaf node.
    """
    sizes = flat.leaf_size
    leafy = np.flatnonzero(sizes > 0)
    lsz = sizes[leafy]
    width = int(np.median(lsz)) if len(leafy) else 1
    row_count = np.zeros(flat.n_nodes, dtype=np.int64)
    row_count[leafy] = -(-lsz // width)
    row_start = np.cumsum(row_count) - row_count
    pos, seg_off = _expand_csr(flat.leaf_start[leafy], lsz)
    ids = flat.leaf_ids[pos]
    owner = np.repeat(leafy, lsz)
    j = np.arange(len(pos), dtype=np.int64) - np.repeat(seg_off, lsz)
    slab = np.full((int(row_count.sum()), width, points.shape[1]), np.inf)
    slab[row_start[owner] + j // width, j % width] = points[ids]
    return slab, row_start, row_count, ids, owner


def _pair_rect_bounds(metric):
    """(mindist, maxdist) callables over per-row ``(n, d)`` boxes.

    The native ``rect_*_many`` kernels broadcast per-row boxes directly
    (their per-axis formulas are elementwise); metrics registered without
    them fall back to a scalar row loop so any exact-rect-bounds metric
    works in the batched engine.
    """
    m = get_metric(metric)
    if not m.supports_rect_bounds:
        raise ValueError(f"metric {m.name!r} has no exact rectangle bounds")
    mind = m.rect_mindist_many
    maxd = m.rect_maxdist_many
    if mind is None:
        scalar_min = m.rect_mindist

        def mind(points, lo, hi):  # pragma: no cover - custom metrics only
            return np.array(
                [scalar_min(points[i], lo[i], hi[i]) for i in range(len(points))],
                dtype=np.float64,
            )

    if maxd is None:
        scalar_max = m.rect_maxdist

        def maxd(points, lo, hi):  # pragma: no cover - custom metrics only
            return np.array(
                [scalar_max(points[i], lo[i], hi[i]) for i in range(len(points))],
                dtype=np.float64,
            )

    return mind, maxd


class FlatTree:
    """Structure-of-arrays image of a ``TreeNode`` hierarchy (BFS order).

    Node 0 is the root; the children of any node occupy a contiguous id
    range ``child_start .. child_start + child_count`` and every level is a
    contiguous id range (recorded in ``levels``), which is what lets the
    batched engine advance whole ``(query, node)`` pair arrays one level per
    Python step and annotate ``maxrho`` bottom-up with one ``reduceat`` per
    level.  ``root`` keeps the source node so index re-fits invalidate the
    cached flattening by identity; ``nodes`` (when present) is the ``TreeNode``
    list in flat-id order, which is how the per-run ``maxrho`` annotation
    scatters the vectorised :func:`flat_tree_maxrho` values back onto the
    object graph for the per-object reference frontiers.

    Images come from two producers: :func:`flatten_tree` (the object-graph
    path) and the direct bulk builders in :mod:`repro.indexes.build`, which
    construct these arrays straight from the point array without ever
    materialising a ``TreeNode`` graph.
    """

    __slots__ = (
        "root", "nodes", "lo", "hi", "nc", "child_start", "child_count", "parent",
        "leaf_start", "leaf_size", "leaf_ids", "leaf_node_of",
        "levels", "n_nodes",
    )

    #: The array-valued slots, in a fixed order (shared-memory export).
    ARRAY_FIELDS = (
        "lo", "hi", "nc", "child_start", "child_count", "parent",
        "leaf_start", "leaf_size", "leaf_ids", "leaf_node_of",
    )

    def nbytes(self) -> int:
        """Resident size of the flat arrays (for index memory accounting)."""
        return sum(getattr(self, name).nbytes for name in self.ARRAY_FIELDS)

    def as_arrays(self) -> dict:
        """The flat image as a plain ``{field: ndarray}`` dict.

        This is what the process execution backend publishes into shared
        memory: the whole tree crosses the process boundary as ten numpy
        buffers plus the tiny ``levels`` list (picklable metadata), never as
        the linked ``TreeNode`` graph.
        """
        return {name: getattr(self, name) for name in self.ARRAY_FIELDS}

    @classmethod
    def from_arrays(cls, arrays, levels, n_nodes: int) -> "FlatTree":
        """Rebuild a :class:`FlatTree` from :meth:`as_arrays` output.

        ``root`` is left ``None`` — a reconstructed image has no source
        ``TreeNode`` graph (worker processes never need one).
        """
        flat = cls()
        flat.root = None
        flat.nodes = None
        flat.levels = [tuple(level) for level in levels]
        flat.n_nodes = int(n_nodes)
        for name in cls.ARRAY_FIELDS:
            setattr(flat, name, arrays[name])
        return flat


def flatten_tree(root) -> FlatTree:
    """Flatten a ``TreeNode`` tree into :class:`FlatTree` arrays (one pass)."""
    nodes = [root]
    levels = []
    start, stop = 0, 1
    while start < stop:
        levels.append((start, stop))
        for i in range(start, stop):
            children = nodes[i].children
            if children is not None:
                nodes.extend(children)
        start, stop = stop, len(nodes)
    n_nodes = len(nodes)
    dim = len(root.lo)
    flat = FlatTree()
    flat.root = root
    flat.nodes = nodes
    flat.n_nodes = n_nodes
    flat.levels = levels
    flat.lo = np.empty((n_nodes, dim), dtype=np.float64)
    flat.hi = np.empty((n_nodes, dim), dtype=np.float64)
    flat.nc = np.empty(n_nodes, dtype=np.int64)
    flat.child_start = np.zeros(n_nodes, dtype=np.int64)
    flat.child_count = np.zeros(n_nodes, dtype=np.int64)
    flat.leaf_start = np.zeros(n_nodes, dtype=np.int64)
    flat.leaf_size = np.zeros(n_nodes, dtype=np.int64)
    leaf_parts = []
    child_pos = 1  # node 0 is the root; its children start right after it
    leaf_pos = 0
    flat.parent = np.zeros(n_nodes, dtype=np.int64)  # root points at itself
    for i, node in enumerate(nodes):
        flat.lo[i] = node.lo
        flat.hi[i] = node.hi
        flat.nc[i] = node.nc
        if node.children is not None:
            flat.child_start[i] = child_pos
            flat.child_count[i] = len(node.children)
            flat.parent[child_pos : child_pos + len(node.children)] = i
            child_pos += len(node.children)
        elif node.ids is not None and len(node.ids):
            flat.leaf_start[i] = leaf_pos
            flat.leaf_size[i] = len(node.ids)
            leaf_pos += len(node.ids)
            leaf_parts.append(np.asarray(node.ids, dtype=np.int64))
    flat.leaf_ids = (
        np.concatenate(leaf_parts) if leaf_parts else np.empty(0, dtype=np.int64)
    )
    # Inverse of the leaf partition: the leaf node holding each object.
    # Seeds every δ query with its own leaf, the tree analogue of the grid's
    # home cell (the traversal then starts with a near-final radius).
    flat.leaf_node_of = np.empty(len(flat.leaf_ids), dtype=np.int64)
    leafy = np.flatnonzero(flat.leaf_size > 0)
    flat.leaf_node_of[flat.leaf_ids] = np.repeat(leafy, flat.leaf_size[leafy])
    return flat


def flat_tree_maxrho(flat: FlatTree, rho_rows: np.ndarray) -> np.ndarray:
    """Per-node subtree-max densities for every density order at once.

    The vectorised analogue of the per-node ``maxrho`` annotation pass:
    leaves reduce their member densities with one ``maximum.reduceat`` over
    the concatenated leaf ids, then each level folds its children bottom-up
    with one ``reduceat`` per level (children of a level's internal nodes
    are contiguous by BFS construction).  Returns ``(n_orders, n_nodes)``.
    """
    rho_rows = np.asarray(rho_rows, dtype=np.float64)
    maxrho = np.full((len(rho_rows), flat.n_nodes), -np.inf, dtype=np.float64)
    nonempty = flat.leaf_size > 0
    if nonempty.any():
        vals = rho_rows[:, flat.leaf_ids]
        maxrho[:, nonempty] = np.maximum.reduceat(
            vals, flat.leaf_start[nonempty], axis=1
        )
    for level_start, level_stop in reversed(flat.levels[:-1]):
        counts = flat.child_count[level_start:level_stop]
        internal = np.flatnonzero(counts > 0)
        if len(internal) == 0:
            continue
        parents = internal + level_start
        starts = flat.child_start[parents]
        first = int(starts[0])
        last = int(starts[-1] + flat.child_count[parents[-1]])
        maxrho[:, parents] = np.maximum.reduceat(
            maxrho[:, first:last], starts - first, axis=1
        )
    return maxrho


def _resolve_pairs(
    rows: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    ids_flat: np.ndarray,
    points: np.ndarray,
    qpts: np.ndarray,
    qord: np.ndarray,
    key_q: np.ndarray,
    key_rows: np.ndarray,
    pair_fn,
    stats,
    best_d: np.ndarray,
    best_id: np.ndarray,
    radius: np.ndarray,
    prev: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> None:
    """Resolve a batch of (query, leaf/cell) pairs in place.

    Each pair scans its candidate segment ``ids_flat[starts:starts+sizes]``
    for the lexicographically smallest ``(distance, id)`` among *denser*
    objects — the reference path's ``np.lexsort((cand, d))[0]`` — and merges
    per query into ``(best_d, best_id)``, tightening ``radius`` alongside.
    ``prev = (prev_key, prev_q)`` also skips every candidate that was denser
    than the query in a previous order (``prev_key[c] < prev_q``): the
    carried-in answer already beats it (:func:`tree_delta_batched`).
    """
    nz = sizes > 0
    if not nz.all():
        rows, starts, sizes = rows[nz], starts[nz], sizes[nz]
    if len(rows) == 0:
        return
    flat, seg_off = _expand_csr(starts, sizes)
    cand = ids_flat[flat]
    rflat = np.repeat(rows, sizes)
    if len(key_rows) == 1:  # single density order: skip the qord gather
        denser = key_rows[0, cand] < key_q[rflat]
    else:
        denser = key_rows[qord[rflat], cand] < key_q[rflat]
    if prev is not None:
        denser &= ~(prev[0][cand] < prev[1][rflat])
    stats.objects_scanned += len(cand)
    # Distances only for denser candidates (the reference's candidate
    # filter); segments re-based on the surviving counts.
    kept = np.add.reduceat(denser.astype(np.int64), seg_off)
    found = kept > 0
    if not found.any():
        return
    cand, rflat = cand[denser], rflat[denser]
    rows, sizes = rows[found], kept[found]
    seg_off = np.cumsum(sizes) - sizes
    d = pair_fn(_rows(qpts, rflat), _rows(points, cand))
    stats.distance_evals += len(cand)
    dmin = np.minimum.reduceat(d, seg_off)
    # Ids tied at the segment minimum, reduced to the smallest.
    cand_at_min = np.where(d == np.repeat(dmin, sizes), cand, len(points))
    idmin = np.minimum.reduceat(cand_at_min, seg_off)
    # Several pairs may serve one query in the same batch: keep the
    # lexicographic (distance, id) minimum per query.
    order = np.lexsort((idmin, dmin, rows))
    rows, dmin, idmin = rows[order], dmin[order], idmin[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    rows, dmin, idmin = rows[first], dmin[first], idmin[first]
    upd = (dmin < best_d[rows]) | ((dmin == best_d[rows]) & (idmin < best_id[rows]))
    if upd.any():
        rows, dmin, idmin = rows[upd], dmin[upd], idmin[upd]
        best_d[rows] = dmin
        best_id[rows] = idmin
        radius[rows] = np.minimum(radius[rows], dmin)


def _axis_bound(bound, per_axis: np.ndarray) -> np.ndarray:
    """A box kernel's value at a point whose per-axis gaps (or reaches) to
    the box are ``per_axis`` (``(k, d)``, all ``>= 0``).

    Against the degenerate box at the origin the gap and the reach of a
    coordinate ``g >= 0`` are ``g`` itself, bit for bit, so the kernel
    reduces exactly these values with its own arithmetic.
    """
    origin = np.broadcast_to(0.0, per_axis.shape)
    return bound(per_axis, origin, origin)


#: The fewest queries that travel as a δ group: a (group, node) pair costs
#: two bound evaluations (nearest and farthest box point) and the group's
#: radius bounds, so a group of two or three saves nothing on its members.
_MIN_GROUP = 4


def _group_queries(key: np.ndarray):
    """Queries by group key: ``(singles, members, start, size)``.

    Rows with a negative key, or fewer than :data:`_MIN_GROUP` under
    theirs, are singles; the rows of every other key are contiguous in
    ``members`` (group ``g`` is ``members[start[g] : start[g] + size[g]]``,
    in no particular order: nothing a query does depends on its place).
    """
    by_key = np.argsort(key)
    ks = key[by_key]
    run = np.flatnonzero(np.diff(ks, prepend=ks[0] - 1))
    size = np.diff(np.append(run, len(ks)))
    grouped = (ks[run] >= 0) & (size >= _MIN_GROUP)
    in_group = np.repeat(grouped, size)
    size = size[grouped]
    return by_key[~in_group], by_key[in_group], np.cumsum(size) - size, size


def tree_delta_batched(
    flat: FlatTree,
    points: np.ndarray,
    qid: np.ndarray,
    qord: np.ndarray,
    rho_rows: np.ndarray,
    key_rows: np.ndarray,
    metric,
    stats,
    density_pruning: bool = True,
    distance_pruning: bool = True,
    maxrho: "np.ndarray | None" = None,
    own_leaf: "np.ndarray | None" = None,
    carry: "Tuple[np.ndarray, np.ndarray] | None" = None,
    group: "np.ndarray | None" = None,
    prev_key: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaf-grouped, frontier-batched best-first δ search over a flattened
    spatial tree.

    Queries travel as *groups* where they can (module docstring, "The
    batched δ engine"): the members of one leaf of ``flat`` within one
    density-order row, and non-members by the caller's ``group`` key.
    Without a carry-in, every query meets every node with the decisions of
    the per-query traversal kept in ``tests/tree_delta_reference.py``, so
    δ, μ and every counter equal it whatever the grouping.

    Parameters
    ----------
    flat:
        :func:`flatten_tree` image of the index's root (cached per fit).
    qid, qord:
        ``(m,)`` query object ids and, per query, the density-order row it
        belongs to — one engine run can serve a whole multi-``dc`` sweep.
        Global peaks must be excluded (handled by :func:`peak_delta_sweep`).
    rho_rows:
        ``(n_orders, n)`` densities (Lemma-1 pruning against ``maxrho``).
    key_rows:
        ``(n_orders, n)`` total-order keys: ``q`` is denser than ``p`` iff
        ``key[q] < key[p]`` (:func:`density_order_key`).
    metric, stats:
        The index's :class:`~repro.geometry.distance.Metric` and its
        :class:`~repro.indexes.base.IndexStats` (batched counter semantics —
        module docstring).
    density_pruning, distance_pruning:
        Lemma 1 / Lemma 2 ablation knobs; disabling changes *work*, never
        results.
    maxrho:
        Optional precomputed :func:`flat_tree_maxrho` rows aligned with
        ``rho_rows`` — a multi-``dc`` sweep annotates every order in one
        pass and hands each engine run its row.  Computed here when absent.
    own_leaf:
        Optional per-query containing-leaf node ids overriding the default
        ``flat.leaf_node_of[qid]`` lookup; ``-1`` marks a query that is not
        a member of this image (an old point against an image of the points
        an append changed), for which the own-leaf/sibling seeding is
        skipped.  Seeding only affects pruning, never results.  Queries
        with an own leaf group by it.
    group:
        Optional full-length array of per-point group keys for the queries
        without an own leaf (say, each point's leaf of the index image); a
        negative key, or no ``group``, makes them single queries.  Groups
        never span density orders.  Grouping changes work, never results.
    carry:
        Optional ``(best_d, best_id)`` per query, an answer already known
        from another point set (a point's answer before an append);
        ``(inf, NO_NEIGHBOR)`` rows carry nothing.  The search starts with
        it as the pruning radius and returns the lexicographic
        ``(distance, id)`` minimum of it and this image's candidates.  With
        a carry-in, groups descend until every member prunes a node and
        split into members only at the leaves; the counters then count
        that schedule's work and are not pinned to the reference's.
    prev_key:
        With ``carry`` only: a full-length total-order key of the order the
        carried answers were computed in, ``+inf`` for points that order
        did not have.  A candidate that was denser than the query then
        (``prev_key[c] < prev_key[p]``) cannot beat the carried answer, so
        it is skipped per pair, and a node whose every point was is pruned
        (:func:`flat_tree_maxrho` over ``prev_key``).

    Returns
    -------
    ``(delta, mu)`` of shape ``(m,)``, aligned with ``qid`` — bit-identical
    to running the per-object reference search per query (merged with
    ``carry`` by the lexicographic ``(distance, id)`` rule).
    """
    qid = np.asarray(qid, dtype=np.int64)
    qord = np.asarray(qord, dtype=np.int64)
    m = len(qid)
    exact = carry is None  # no carry-in: reproduce the reference's decisions
    if carry is None:
        if prev_key is not None:
            raise ValueError("prev_key needs a carried-in answer")
        best_d = np.full(m, np.inf, dtype=np.float64)
        best_id = np.full(m, NO_NEIGHBOR, dtype=np.int64)
    else:
        best_d = np.array(carry[0], dtype=np.float64)
        best_id = np.array(carry[1], dtype=np.int64)
    if m == 0:
        return best_d, best_id
    if maxrho is None:
        maxrho = flat_tree_maxrho(flat, rho_rows)
    mind_pairs, maxd_pairs = _pair_rect_bounds(metric)

    def pair_fn(a, b):
        return paired_distances(a, b, metric)

    lo, hi = flat.lo, flat.hi
    child_start, child_count = flat.child_start, flat.child_count
    is_leaf = child_count == 0
    qpts = _rows(points, qid)
    rho_q = rho_rows[qord, qid]
    key_q = key_rows[qord, qid]

    def node_maxrho(orders, idx, nodes):
        """``maxrho`` of each pair's node in its order, ``orders[idx]``."""
        if len(maxrho) == 1:  # single density order: skip the qord gather
            return maxrho[0, nodes]
        return maxrho[orders[idx], nodes]

    prev = prev_max = None
    if prev_key is not None:
        prev_key = np.asarray(prev_key, dtype=np.float64)
        prev = (prev_key, prev_key[qid])
        prev_max = flat_tree_maxrho(flat, prev_key[None, :])[0]

    def alive(rows, nodes, node_max):
        """Lemma 1 (and the previous order) per (query, node) pair."""
        if density_pruning:
            ok = node_max >= rho_q[rows]
        else:
            ok = np.ones(len(rows), dtype=bool)
        if prev is not None:
            ok &= prev_max[nodes] >= prev[1][rows]
        stats.nodes_pruned_density += int(len(ok) - ok.sum())
        return ok

    # Pruning radius per query: min(best candidate so far, ub), where ub is
    # the sound upper bound from nodes whose maxrho is *strictly* above ρ(p)
    # (they certainly contain a denser object, so their maxdist bounds δ).
    # A carried-in answer is a candidate too.  Pruning always compares with
    # strict '>', so equal-distance candidates stay reachable for the
    # smaller-id tie-break.
    radius = best_d.copy()

    def resolve(rows, leaves):
        _resolve_pairs(
            rows, flat.leaf_start[leaves], flat.leaf_size[leaves],
            flat.leaf_ids, points, qpts, qord, key_q, key_rows,
            pair_fn, stats, best_d, best_id, radius, prev,
        )

    leaf = (
        flat.leaf_node_of[qid] if own_leaf is None
        else np.asarray(own_leaf, dtype=np.int64)
    )
    own_leaf = seeded_parent = None
    if distance_pruning:
        # Seed every query with its own containing leaf: most objects find
        # their nearest denser neighbour inside it, so the traversal starts
        # with a near-final radius and Lemma 2 collapses the upper levels.
        # The traversal skips the seeded leaf (already fully resolved).
        # Rows whose leaf is -1 (non-members of this image) skip the
        # seeding and resolve through the plain traversal.
        own_leaf = leaf
        seeded = np.flatnonzero(own_leaf >= 0)
        if len(seeded):
            resolve(seeded, own_leaf[seeded])
        # Queries densest within their own leaf still have an infinite
        # radius and would cascade through the whole upper tree; a second
        # hop over the leaf's (leaf-)siblings resolves almost all of them.
        need = np.flatnonzero(np.isinf(radius) & (own_leaf >= 0))
        if len(need):
            sib_parent = flat.parent[own_leaf[need]]
            counts = child_count[sib_parent]
            sibling, _ = _expand_csr(child_start[sib_parent], counts)
            sib_row = np.repeat(need, counts)
            fresh = is_leaf[sibling] & (sibling != own_leaf[sib_row])
            resolve(sib_row[fresh], sibling[fresh])
            # The traversal must not re-scan the leaf siblings resolved
            # here; remember the seeded parent per query.
            seeded_parent = np.full(m, -1, dtype=np.int64)
            seeded_parent[need] = sib_parent

    # Groups: members by their leaf, the others by the caller's key (offset
    # past the node ids), within one density order.
    key = leaf.copy()
    if group is not None:
        outside = np.flatnonzero(key < 0)
        caller = np.asarray(group, dtype=np.int64)[qid[outside]]
        key[outside] = np.where(caller >= 0, flat.n_nodes + caller, -1)
    key = np.where(key >= 0, qord * (int(key.max()) + 1) + key, -1)
    if is_leaf[0]:
        key[:] = -1  # a one-leaf tree: nothing to group
    s_row, members, g_start, g_size = _group_queries(key)
    n_groups = len(g_size)
    if n_groups:
        # The group-box bounds need lo <= hi on every axis; groups meeting
        # other boxes split into their members.
        sound = np.all(lo <= hi, axis=1)
        member_pts = _rows(qpts, members)
        g_lo = np.minimum.reduceat(member_pts, g_start, axis=0)
        g_hi = np.maximum.reduceat(member_pts, g_start, axis=0)
        g_ord = qord[members[g_start]]
        g_rho_lo = np.minimum.reduceat(rho_q[members], g_start)
        g_rho_hi = np.maximum.reduceat(rho_q[members], g_start)
        if prev is not None:
            g_prev_lo = np.minimum.reduceat(prev[1][members], g_start)

    def group_radius():
        r = radius[members]
        return np.minimum.reduceat(r, g_start), np.maximum.reduceat(r, g_start)

    def members_of(gids):
        sizes = g_size[gids]
        pos, _ = _expand_csr(g_start[gids], sizes)
        return members[pos], sizes

    def node_dmin(rows, nodes):
        if not distance_pruning:  # only Lemma 2 reads it
            return np.zeros(len(rows), dtype=np.float64)
        return mind_pairs(_rows(qpts, rows), _rows(lo, nodes), _rows(hi, nodes))

    # Frontier: single (query, node) pairs as in the reference, and
    # (group, node) pairs with bounds on their members' mindist to the node.
    s_node = np.zeros(len(s_row), dtype=np.int64)  # everyone starts at the root
    s_dmin = np.zeros(len(s_row), dtype=np.float64)
    g_gid = np.arange(n_groups, dtype=np.int64)
    g_node = np.zeros(n_groups, dtype=np.int64)
    g_near = np.zeros(n_groups, dtype=np.float64)
    g_far = np.zeros(n_groups, dtype=np.float64)
    while len(s_node) or len(g_node):
        if len(g_node):
            # Lemma 2 on arrival, against the radii as they are now: a node
            # is dropped when the members' nearest mindist exceeds every
            # radius.  Without a carry-in the group splits unless their
            # farthest is within every radius; a group reaching a leaf
            # splits (each member orders its leaves by its own mindist).
            keep = np.ones(len(g_node), dtype=bool)
            split = is_leaf[g_node]
            if distance_pruning:
                r_lo, r_hi = group_radius()
                keep = g_near <= r_hi[g_gid]
                stats.nodes_pruned_distance += int(g_size[g_gid[~keep]].sum())
                if exact:
                    split |= g_far > r_lo[g_gid]
                split &= keep
            keep &= ~split
            if split.any():
                rows, sizes = members_of(g_gid[split])
                nodes = np.repeat(g_node[split], sizes)
                if not exact:
                    # A carried-in group descends while any member needs
                    # the node; here each checks Lemma 1 alone (without a
                    # carry-in every member of a group passed it).
                    ok = alive(rows, nodes, node_maxrho(qord, rows, nodes))
                    rows, nodes = rows[ok], nodes[ok]
                s_row = np.concatenate([s_row, rows])
                s_node = np.concatenate([s_node, nodes])
                s_dmin = np.concatenate([s_dmin, node_dmin(rows, nodes)])
            g_gid, g_node = g_gid[keep], g_node[keep]
            g_near, g_far = g_near[keep], g_far[keep]
        if distance_pruning:
            # Re-check on arrival: the radius may have tightened since the
            # pair was enqueued (Lemma 2, the reference's stale-entry check).
            keep = s_dmin <= radius[s_row]
            stats.nodes_pruned_distance += int(len(keep) - keep.sum())
            s_row, s_node, s_dmin = s_row[keep], s_node[keep], s_dmin[keep]
        if not (len(s_node) or len(g_node)):
            break
        stats.nodes_visited += len(s_node) + int(g_size[g_gid].sum())
        at_leaf = is_leaf[s_node]
        if at_leaf.any():
            leaf_node = s_node[at_leaf]
            leaf_row = s_row[at_leaf]
            leaf_dmin = s_dmin[at_leaf]
            if own_leaf is not None:  # seeded leaves are already resolved
                fresh = leaf_node != own_leaf[leaf_row]
                if seeded_parent is not None:
                    fresh &= flat.parent[leaf_node] != seeded_parent[leaf_row]
                leaf_node = leaf_node[fresh]
                leaf_row = leaf_row[fresh]
                leaf_dmin = leaf_dmin[fresh]
            if distance_pruning and exact and len(leaf_node):
                # Wave-based resolution emulates the reference's best-first
                # ordering: each wave resolves every query's nearest
                # still-unresolved leaf, then re-prunes its remaining leaves
                # with the tightened radius.  A few waves kill almost all
                # surviving pairs; the small remainder resolves in one go.
                # (A carried-in radius is near-final already: no waves.)
                # Equal mindists keep the reference frontier's order, which
                # is node-id order (children follow their parents in BFS).
                order = np.lexsort((leaf_node, leaf_dmin, leaf_row))
                leaf_node = leaf_node[order]
                leaf_row = leaf_row[order]
                leaf_dmin = leaf_dmin[order]
                for _wave in range(3):
                    if len(leaf_node) == 0:
                        break
                    nearest = np.ones(len(leaf_row), dtype=bool)
                    nearest[1:] = leaf_row[1:] != leaf_row[:-1]
                    resolve(leaf_row[nearest], leaf_node[nearest])
                    rest = ~nearest
                    keep = leaf_dmin[rest] <= radius[leaf_row[rest]]
                    stats.nodes_pruned_distance += int(len(keep) - keep.sum())
                    leaf_node = leaf_node[rest][keep]
                    leaf_row = leaf_row[rest][keep]
                    leaf_dmin = leaf_dmin[rest][keep]
            resolve(leaf_row, leaf_node)
            s_row, s_node = s_row[~at_leaf], s_node[~at_leaf]

        # Expand every pair to its children (contiguous ids by construction).
        # All pruning of this level reads the radii as they are now; the
        # maxdist bounds of surely-denser children apply after it.
        sure_row, sure_dmax = [], []
        split_row = split_node = None
        if len(g_node):
            counts = child_count[g_node]
            c_node, _ = _expand_csr(child_start[g_node], counts)
            c_gid = np.repeat(g_gid, counts)
            c_maxrho = node_maxrho(g_ord, c_gid, c_node)
            # Lemma 1 prunes the child for every member when its max ρ is
            # below the group's smallest ρ (with a carry-in, also when all
            # its points were denser than every member before).  The group
            # stays whole when no member prunes it (with a carry-in: while
            # any member needs it) and splits otherwise.  Lemma 2 waits for
            # the arrival check: a child it prunes now, it prunes then (the
            # radii only shrink), and either way once, as a distance prune.
            drop = np.zeros(len(c_node), dtype=bool)
            stay = np.ones(len(c_node), dtype=bool)
            if density_pruning:
                drop = c_maxrho < g_rho_lo[c_gid]
                if exact:
                    stay = c_maxrho >= g_rho_hi[c_gid]
            if prev is not None:
                drop |= prev_max[c_node] < g_prev_lo[c_gid]
            stats.nodes_pruned_density += int(g_size[c_gid[drop]].sum())
            split = ~(drop | stay)
            if split.any():
                split_row, msz = members_of(c_gid[split])
                split_node = np.repeat(c_node[split], msz)
            stay &= ~drop
            c_gid, c_node, c_maxrho = c_gid[stay], c_node[stay], c_maxrho[stay]
            near = far = np.zeros(len(c_node), dtype=np.float64)
            if distance_pruning:
                nlo, nhi = _rows(lo, c_node), _rows(hi, c_node)
                glo, ghi = _rows(g_lo, c_gid), _rows(g_hi, c_gid)
                ok = sound[c_node]
                # Bounds on the members' mindist to the child, for its
                # arrival check: at the group-box point nearest the node
                # (per axis the box-to-box gap) and, without a carry-in, at
                # the one farthest from it, gap-wise.  The box kernels are
                # monotone in every per-axis gap and reach, also under
                # rounding, so a value at a box point bounds every member's.
                gap = np.maximum(np.maximum(nlo - ghi, glo - nhi), 0.0)
                near = np.where(ok, _axis_bound(mind_pairs, gap), 0.0)
            if distance_pruning and exact:
                gap = np.maximum(np.maximum(nlo - glo, ghi - nhi), 0.0)
                far = np.where(ok, _axis_bound(mind_pairs, gap), np.inf)
                # A surely-denser child bounds the radius of its denser
                # members by their maxdist, unless a lower bound of every
                # member's maxdist (per axis the reach from the group box's
                # side nearest the node's centre) reaches every radius: the
                # bound would change nothing there.
                some = np.flatnonzero(c_maxrho > g_rho_lo[c_gid])
                reach = np.maximum(
                    np.maximum(glo[some] - nlo[some], nhi[some] - ghi[some]), 0.0
                )
                some = some[
                    _axis_bound(maxd_pairs, reach) < group_radius()[1][c_gid[some]]
                ]
                if len(some):
                    rows, msz = members_of(c_gid[some])
                    nodes = np.repeat(c_node[some], msz)
                    sel = rho_q[rows] < np.repeat(c_maxrho[some], msz)
                    rows, nodes = rows[sel], nodes[sel]
                    sure_row.append(rows)
                    sure_dmax.append(maxd_pairs(
                        _rows(qpts, rows), _rows(lo, nodes), _rows(hi, nodes)
                    ))
            g_gid, g_node, g_near, g_far = c_gid, c_node, near, far

        # Single pairs, and the members of split groups: today's step.
        counts = child_count[s_node]
        child_node, _ = _expand_csr(child_start[s_node], counts)
        child_row = np.repeat(s_row, counts)
        if split_row is not None:
            child_node = np.concatenate([child_node, split_node])
            child_row = np.concatenate([child_row, split_row])
        child_maxrho = node_maxrho(qord, child_row, child_node)
        # Both lemmas evaluated on the full pair array, one filter pass
        # (cheap vector arithmetic beats repeated boolean gathers).
        keep = alive(child_row, child_node, child_maxrho)
        child_dmin = node_dmin(child_row, child_node)
        if distance_pruning:
            ok = child_dmin <= radius[child_row]  # Lemma 2
            # Reference ordering: distance pruning only examines the
            # density survivors.
            stats.nodes_pruned_distance += int((keep & ~ok).sum())
            keep &= ok
        child_node = child_node[keep]
        child_row = child_row[keep]
        child_dmin = child_dmin[keep]
        if distance_pruning:
            sure = child_maxrho[keep] > rho_q[child_row]
            if sure.any():
                sure_row.append(child_row[sure])
                sure_node = child_node[sure]
                sure_dmax.append(maxd_pairs(
                    _rows(qpts, child_row[sure]), _rows(lo, sure_node),
                    _rows(hi, sure_node),
                ))
        for rows, dmax in zip(sure_row, sure_dmax):
            np.minimum.at(radius, rows, dmax)
        s_row, s_node, s_dmin = child_row, child_node, child_dmin
    return best_d, best_id


def grid_delta_batched(
    points: np.ndarray,
    qid: np.ndarray,
    qord: np.ndarray,
    rho_rows: np.ndarray,
    key_rows: np.ndarray,
    cell_maxrho_rows: np.ndarray,
    offsets: np.ndarray,
    ids_sorted: np.ndarray,
    cell_of: np.ndarray,
    grid_lo: np.ndarray,
    cell_w: float,
    shape: Tuple[int, int],
    metric,
    stats,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expanding-ring cell-batched δ search over a uniform grid.

    The grid analogue of :func:`tree_delta_batched`, ring-synchronous: every
    iteration advances *all* still-unresolved queries one ring outward.  The
    ring-``r`` candidate cells of every query are expanded into one flat
    ``(query, cell)`` pair array, pruned with Lemma 1 (per-cell ``maxrho``
    rows) and Lemma 2 (vectorised cell ``mindist`` against each query's
    current best), and the survivors resolve their cell members through the
    same paired-distance segment reduction the tree leaves use.  A query
    leaves the schedule exactly when the scalar reference would stop its
    ring loop — ``(r - 1)·w`` exceeding its candidate δ, or its ring lying
    entirely outside the grid — so results (δ, μ, smaller-id ties) are
    bit-identical.

    Parameters mirror :class:`~repro.indexes.grid.GridIndex` internals: CSR
    ``(offsets, ids_sorted)`` cell membership, ``cell_of`` flat home cells,
    ``grid_lo`` / ``cell_w`` / ``shape`` geometry, and ``cell_maxrho_rows``
    of shape ``(n_orders, nx · ny)``.
    """
    qid = np.asarray(qid, dtype=np.int64)
    qord = np.asarray(qord, dtype=np.int64)
    m = len(qid)
    best_d = np.full(m, np.inf, dtype=np.float64)
    best_id = np.full(m, NO_NEIGHBOR, dtype=np.int64)
    if m == 0:
        return best_d, best_id
    mind_pairs, _maxd_pairs = _pair_rect_bounds(metric)
    cr = getattr(get_metric(metric), "coord_radius", None)

    def pair_fn(a, b):
        return paired_distances(a, b, metric)

    nx, ny = shape
    w = float(cell_w)
    sizes_all = np.diff(offsets)
    qpts = points[qid]
    rho_q = rho_rows[qord, qid]
    key_q = key_rows[qord, qid]
    home = cell_of[qid]
    hx, hy = home // ny, home % ny
    max_ring = max(nx, ny)

    active = np.arange(m, dtype=np.int64)
    for r in range(max_ring + 1):
        if r > 0:
            bd = best_d[active]
            # Ring-level Lemma 2: any ring-r cell is at least (r-1)·w away
            # in coordinate units; compare against the candidate δ's
            # coordinate radius (identity for coordinate-valued metrics).
            bd_coord = bd if cr is None else cr(bd)
            done = (bd < np.inf) & ((r - 1) * w > bd_coord)
            # A ring entirely outside the grid ends the reference loop too.
            outside = (
                (hx[active] - r < 0) & (hx[active] + r >= nx)
                & (hy[active] - r < 0) & (hy[active] + r >= ny)
            )
            active = active[~(done | outside)]
            if len(active) == 0:
                break
        if r == 0:
            dx = np.zeros(1, dtype=np.int64)
            dy = np.zeros(1, dtype=np.int64)
        else:
            span = np.arange(-r, r + 1, dtype=np.int64)
            inner = np.arange(-r + 1, r, dtype=np.int64)
            dx = np.concatenate(
                [span, span, np.full(len(inner), -r), np.full(len(inner), r)]
            )
            dy = np.concatenate(
                [np.full(len(span), -r), np.full(len(span), r), inner, inner]
            )
        qrep = np.repeat(active, len(dx))
        cx = hx[qrep] + np.tile(dx, len(active))
        cy = hy[qrep] + np.tile(dy, len(active))
        in_bounds = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
        qrep, cx, cy = qrep[in_bounds], cx[in_bounds], cy[in_bounds]
        if len(qrep) == 0:
            continue
        cell = cx * ny + cy
        occupied = sizes_all[cell] > 0
        qrep, cell, cx, cy = qrep[occupied], cell[occupied], cx[occupied], cy[occupied]
        if len(qrep) == 0:
            continue
        if len(cell_maxrho_rows) == 1:
            alive = cell_maxrho_rows[0, cell] >= rho_q[qrep]  # Lemma 1
        else:
            alive = cell_maxrho_rows[qord[qrep], cell] >= rho_q[qrep]  # Lemma 1
        stats.nodes_pruned_density += int(len(alive) - alive.sum())
        qrep, cell, cx, cy = qrep[alive], cell[alive], cx[alive], cy[alive]
        if len(qrep) == 0:
            continue
        # Same box arithmetic as GridIndex._cell_box, per pair.
        clo = grid_lo[None, :] + np.stack([cx, cy], axis=1) * w
        ok = mind_pairs(qpts[qrep], clo, clo + w) <= best_d[qrep]  # Lemma 2
        stats.nodes_pruned_distance += int(len(ok) - ok.sum())
        qrep, cell = qrep[ok], cell[ok]
        if len(qrep) == 0:
            continue
        stats.nodes_visited += len(qrep)
        _resolve_pairs(
            qrep, offsets[cell], sizes_all[cell], ids_sorted,
            points, qpts, qord, key_q, key_rows,
            pair_fn, stats, best_d, best_id, best_d,
        )
    return best_d, best_id


def grid_rho_batched(
    points: np.ndarray,
    qid: "np.ndarray | None",
    dc: float,
    w: float,
    grid_lo: np.ndarray,
    shape: Tuple[int, int],
    offsets: np.ndarray,
    ids_sorted: np.ndarray,
    cell_of: np.ndarray,
    metric,
    stats,
) -> np.ndarray:
    """Cell-batched Observation-1 ρ over a uniform grid.

    The grid analogue of :func:`tree_rho_batched`: query points are grouped
    by home cell, every candidate cell classifies for the whole group with
    the batched rectangle bounds — per-point classifications (results *and*
    probe counters) are identical to the scalar formulation.

    ``qid`` restricts the evaluation to a query subset (default: all
    objects); counts come back aligned with it.  Each query's candidate
    cell range, classification sequence and counter contributions depend
    only on the query itself, so sharding over ``qid`` chunks is
    bit-identical to one whole-table call — the execution-backend contract.

    Parameters mirror :class:`~repro.indexes.grid.GridIndex` internals: CSR
    ``(offsets, ids_sorted)`` cell membership and the ``grid_lo`` /
    ``w`` / ``shape`` geometry.
    """
    n = len(points)
    dc = float(dc)
    w = float(w)
    nx, ny = shape
    offsets = np.asarray(offsets, dtype=np.int64)
    mind_many, maxd_many = rect_bounds_many(metric)
    cross = get_metric(metric).cross

    # Per-point candidate cell ranges — the same floor arithmetic the
    # scalar query used, evaluated for all points at once.  The window is
    # in coordinate units: a metric whose values are not coordinate
    # distances (sqeuclidean) converts dc through its coord_radius.
    cr = getattr(get_metric(metric), "coord_radius", None)
    reach = dc if cr is None else float(cr(dc))
    lo = grid_lo
    ix0 = np.maximum((points[:, 0] - reach - lo[0]) // w, 0).astype(np.int64)
    ix1 = np.minimum((points[:, 0] + reach - lo[0]) // w, nx - 1).astype(np.int64)
    iy0 = np.maximum((points[:, 1] - reach - lo[1]) // w, 0).astype(np.int64)
    iy1 = np.minimum((points[:, 1] + reach - lo[1]) // w, ny - 1).astype(np.int64)

    # Restricting to a query subset visits only the subset's own home
    # cells (cell-sorted chunks touch a contiguous cell range, so a shard
    # pays for its cells alone, not a full occupied-cell sweep).
    in_sel = None
    if qid is not None:
        qid = np.asarray(qid, dtype=np.int64)
        in_sel = np.zeros(n, dtype=bool)
        in_sel[qid] = True
        occupied = np.unique(cell_of[qid])
    else:
        occupied = np.flatnonzero(np.diff(offsets) > 0)

    counts = np.zeros(n, dtype=np.int64)
    for home in occupied:
        members = ids_sorted[offsets[home] : offsets[home + 1]]
        if in_sel is not None:
            members = members[in_sel[members]]
            if len(members) == 0:
                continue
        mx0, mx1 = ix0[members], ix1[members]
        my0, my1 = iy0[members], iy1[members]
        for fx in range(int(mx0.min()), int(mx1.max()) + 1):
            base = fx * ny
            for fy in range(int(my0.min()), int(my1.max()) + 1):
                flat = base + fy
                start, stop = offsets[flat], offsets[flat + 1]
                if start == stop:
                    continue
                sel = (mx0 <= fx) & (fx <= mx1) & (my0 <= fy) & (fy <= my1)
                if not sel.any():
                    continue
                rows = members[sel]
                stats.nodes_visited += len(rows)
                # Same box arithmetic as GridIndex._cell_box.
                clo = lo + np.array([fx * w, fy * w])
                chi = clo + w
                rpts = points[rows]
                alive = mind_many(rpts, clo, chi) < dc
                if not alive.any():
                    continue
                rows = rows[alive]
                rpts = rpts[alive]
                contained = maxd_many(rpts, clo, chi) < dc
                if contained.any():
                    counts[rows[contained]] += int(stop - start)
                    stats.nodes_contained += int(contained.sum())
                rest = rows[~contained]
                if len(rest):
                    d = cross(rpts[~contained], points[ids_sorted[start:stop]])
                    stats.distance_evals += d.size
                    counts[rest] += (d < dc).sum(axis=1)
    counts -= 1  # remove the self-count, as in the tree indexes
    return counts if qid is None else counts[qid]


def tree_rho_batched(
    flat: FlatTree,
    points: np.ndarray,
    dc: float,
    metric,
    stats,
    qid: "np.ndarray | None" = None,
    group: "np.ndarray | None" = None,
) -> np.ndarray:
    """Batched Algorithm 5 (ρ query) over a flattened spatial tree.

    Level-synchronous like :func:`tree_delta_batched`, and leaf-grouped:
    the queries that are members of one leaf of ``flat`` travel as a
    *group* whose box is the min/max of its members' coordinates.  A
    ``(group, node)`` pair is decided for all members at once when the
    group box settles Observation 1 for the node:

    * *discarded* — ``mindist`` at the box point nearest the node,
      ``clip(node_lo, g_lo, g_hi)``, is ``≥ dc``;
    * *fully contained* — ``maxdist`` at the box corner farthest from the
      node (chosen per axis) is ``< dc``; ``nc`` is added to every member.

    Both bounds go through the metric's own ``rect_*_many`` kernels at a
    real point of the box.  The kernels are monotone in every per-axis gap
    and reach, and in floating point too the nearest point's gaps (the
    farthest corner's reaches) are the smallest (largest) of any point in
    the box, so every member would reach the same decision on its own (a
    node box with ``lo > hi`` on some axis is never decided this way).  The
    other pairs are classified member by member, exactly as a lone query
    would be: a group whose members all intersect an inner node stays a
    group for its children, and the intersecting members of a mixed pair go
    on as single queries.  Queries that are not members of ``flat`` (old
    points against an image of the points an append brought) group by
    ``group``, a full-length array of per-point keys (say, each point's leaf
    of the index image); a negative key, or no ``group``, makes them single
    queries.  The box argument holds for any set of
    points, so a caller's grouping changes locality only, never results.

    Intersected leaves are scanned from fixed-width padded rows of leaf
    coordinates (:func:`_leaf_rows`), contiguous blocks instead of per-point
    gathers; distances come from
    :func:`~repro.geometry.distance.paired_distances`, so every comparison
    with ``dc`` is the one a per-pair scan makes.

    Every query therefore meets the nodes it reaches with the outcomes of
    the per-query traversal, and ρ and the probe counters are identical to
    it: ``nodes_visited`` and ``nodes_contained`` count per member,
    ``distance_evals`` per scanned leaf point (not per padded slot).
    ``qid`` restricts the traversal to a query subset (default: all
    objects), returning counts aligned with it; since grouping never changes
    a query's outcomes, sharding over ``qid`` chunks is bit-identical to one
    whole-table call — the execution-backend contract.
    """
    dc = float(dc)
    n = len(points)
    qid = np.arange(n) if qid is None else qid
    qid = np.asarray(qid, dtype=np.int64)
    m = len(qid)
    qpts = _rows(points, qid)
    mind_pairs, maxd_pairs = _pair_rect_bounds(metric)
    lo, hi, nc = flat.lo, flat.hi, flat.nc
    child_start, child_count = flat.child_start, flat.child_count
    is_leaf = child_count == 0
    # The box-point argument needs lo <= hi on every axis; other boxes are
    # left to the member-by-member classification.
    sound = np.all(lo <= hi, axis=1)
    slab, row_start, row_count, leaf_pts, leaf_owner = _leaf_rows(flat, points)
    total = np.zeros(m, dtype=np.float64)  # integer-valued neighbour counts

    def scan(rows, leaves):
        """Per query, its points closer than dc in the ``(row, leaf)`` pairs."""
        stats.distance_evals += int(flat.leaf_size[leaves].sum())
        nrows = row_count[leaves]
        slab_row, _ = _expand_csr(row_start[leaves], nrows)
        rows = np.repeat(rows, nrows)
        width = slab.shape[1]
        step = max(1, _SCAN_SLOTS // width)
        found = np.zeros(m, dtype=np.float64)
        for a in range(0, len(rows), step):
            q = rows[a : a + step]
            d = paired_distances(
                np.repeat(_rows(qpts, q), width, axis=0),
                _rows(slab, slab_row[a : a + step]).reshape(len(q) * width, -1),
                metric,
            )
            within = (d < dc).reshape(len(q), width).sum(axis=1)
            found += np.bincount(q, weights=within, minlength=m)
        return found

    # Groups: the queries that are members of one leaf, from leaf_ids, and
    # non-members by the caller's key (offset past the node ids).
    member_leaf = np.full(n, -1, dtype=np.int64)
    member_leaf[leaf_pts] = leaf_owner
    own = member_leaf[qid]
    if group is not None:
        outside = np.flatnonzero(own < 0)
        key = np.asarray(group, dtype=np.int64)[qid[outside]]
        own[outside] = np.where(key >= 0, flat.n_nodes + key, -1)
    by_leaf = np.argsort(own, kind="stable")
    n_single = int(np.count_nonzero(own < 0))
    members = by_leaf[n_single:]
    g_start = np.flatnonzero(np.diff(own[members], prepend=-1))
    g_size = np.diff(np.append(g_start, len(members)))
    n_groups = len(g_start)
    g_total = np.zeros(n_groups, dtype=np.float64)
    member_pts = _rows(qpts, members)
    g_lo = np.minimum.reduceat(member_pts, g_start, axis=0)
    g_hi = np.maximum.reduceat(member_pts, g_start, axis=0)

    g_gid = np.arange(n_groups, dtype=np.int64)  # every query starts at the root
    g_node = np.zeros(n_groups, dtype=np.int64)
    s_row = by_leaf[:n_single]
    s_node = np.zeros(n_single, dtype=np.int64)
    while len(g_node) or len(s_node):
        stats.nodes_visited += len(s_row) + int(g_size[g_gid].sum())
        rows, nodes = s_row, s_node
        if len(g_node):
            nlo, nhi = _rows(lo, g_node), _rows(hi, g_node)
            glo, ghi = _rows(g_lo, g_gid), _rows(g_hi, g_gid)
            ok = sound[g_node]
            # Every member discards the node: mindist at the box point
            # nearest to it.
            near = np.minimum(np.maximum(nlo, glo), ghi)
            gone = ok & (mind_pairs(near, nlo, nhi) >= dc)
            # Every member contains it: maxdist at the box corner farthest
            # from it.
            far = np.where(np.abs(ghi - nlo) >= np.abs(glo - nhi), ghi, glo)
            whole = ok & ~gone & (maxd_pairs(far, nlo, nhi) < dc)
            if whole.any():
                stats.nodes_contained += int(g_size[g_gid[whole]].sum())
                g_total += np.bincount(
                    g_gid[whole], weights=nc[g_node[whole]], minlength=n_groups
                )
            # The rest are classified member by member, below.
            undecided = ~(gone | whole)
            g_gid, g_node = g_gid[undecided], g_node[undecided]
            sizes = g_size[g_gid]
            pos, seg = _expand_csr(g_start[g_gid], sizes)
            rows = np.concatenate([s_row, members[pos]])
            nodes = np.concatenate([s_node, np.repeat(g_node, sizes)])
        # Per-query Observation 1: discarded / contained / intersected.
        pts, nlo, nhi = _rows(qpts, rows), _rows(lo, nodes), _rows(hi, nodes)
        alive = mind_pairs(pts, nlo, nhi) < dc
        reach = maxd_pairs(pts, nlo, nhi) >= dc
        inter = alive & reach
        contained = alive & ~reach
        if contained.any():
            stats.nodes_contained += int(contained.sum())
            total += np.bincount(
                rows[contained], weights=nc[nodes[contained]], minlength=m
            )
        if len(g_node):
            # A group whose members all intersect an inner node descends as
            # a group; its members leave the single-query frontier.
            stay = np.logical_and.reduceat(inter[len(s_row) :], seg)
            stay &= ~is_leaf[g_node]
            g_gid, g_node = g_gid[stay], g_node[stay]
            inter[len(s_row) :] &= ~np.repeat(stay, sizes)
        at_leaf = inter & is_leaf[nodes]
        total += scan(rows[at_leaf], nodes[at_leaf])
        down = inter & ~is_leaf[nodes]
        s_row, s_node = rows[down], nodes[down]
        counts = child_count[s_node]
        s_node, _ = _expand_csr(child_start[s_node], counts)
        s_row = np.repeat(s_row, counts)
        counts = child_count[g_node]
        g_node, _ = _expand_csr(child_start[g_node], counts)
        g_gid = np.repeat(g_gid, counts)
    total[members] += np.repeat(g_total, g_size)
    # Every query was counted inside its own query circle (dist 0 < dc);
    # Eq. 1 excludes the object itself.
    return np.rint(total).astype(np.int64) - 1
