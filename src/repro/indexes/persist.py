"""Save / load fitted indexes.

The paper's Table 4 is the motivation: List/CH construction is
``O(n² log n)`` and dominates everything else, so a user iterating on ``dc``
across sessions wants to pay it once.  ``save_index`` writes a single
``.npz`` with the constructor parameters, the points, and — for the
list-based indexes — the expensive precomputed arrays, so ``load_index``
restores them without recomputation.  Tree indexes persist their flattened
:class:`~repro.indexes.kernels.FlatTree` image (the structure every query
path consumes), so a load — and a serving cold start — skips both the
rebuild and the re-flatten and is query-ready immediately.  The grid
rebuilds from points at load time (one vectorised binning pass).

Round-trip contract (tested): a loaded index answers every query exactly
like the one that was saved, and a loaded flat image equals a fresh
flatten/bulk-build of the stored points bit for bit.

Durability contract: :func:`save_index` is **atomic** — the payload is
written to a same-directory temp file, fsynced, and ``os.replace``-d into
place, so a crash mid-save leaves either the old file or the new one,
never a truncated hybrid.  :func:`load_index` treats every unreadable or
integrity-failing payload as a :class:`CorruptSnapshotError` (a
``ValueError``) and, by default, **quarantines** the bad file by renaming
it to ``<path>.corrupt`` — a serving process restarted in a crash loop
then gets a clean :exc:`FileNotFoundError` instead of re-tripping on the
same bytes, and the evidence survives for the operator.  A payload that
names an index family this build does not register is not corrupt: it
raises a plain ``ValueError`` and stays where it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Any, Dict, Optional

import numpy as np

from repro import faults
from repro.indexes.base import DPCIndex
from repro.indexes.ch_index import CumulativeHistogramMixin
from repro.indexes.kernels import FlatTree
from repro.indexes.list_index import NListIndex
from repro.indexes.registry import INDEX_CLASSES
from repro.indexes.rn_list import RNListIndex
from repro.indexes.treebase import TreeIndexBase

__all__ = [
    "CorruptSnapshotError",
    "export_index_image",
    "index_fingerprint",
    "load_index",
    "restore_index_image",
    "save_index",
]


class CorruptSnapshotError(ValueError):
    """A snapshot file is unreadable or failed an integrity check.

    Subclasses ``ValueError`` so callers that guarded the old error type
    keep working; carries the offending ``path`` and, when quarantine ran,
    the ``quarantined_to`` path the bad file was renamed to.  (A valid
    ``.npz`` that simply isn't an index file still raises ``KeyError`` for
    the missing ``meta`` entry — that's a wrong-file mistake, not
    corruption, and the file is left alone.)
    """

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        quarantined_to: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.quarantined_to = quarantined_to


def _quarantine(path: str) -> Optional[str]:
    """Rename a corrupt payload to ``<path>.corrupt`` (best effort)."""
    target = f"{path}.corrupt"
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def _corrupt(path: str, message: str, quarantine: bool) -> CorruptSnapshotError:
    quarantined_to = _quarantine(path) if quarantine else None
    if quarantined_to is not None:
        message = f"{message} (quarantined to {quarantined_to!r})"
    return CorruptSnapshotError(message, path=path, quarantined_to=quarantined_to)

_FORMAT_VERSION = 1

#: Version of the fingerprint *recipe*; bumping it retires every cached
#: result keyed on older fingerprints (the serving cache keys on the
#: fingerprint string, so a recipe change must never collide with old keys).
#: v2 added the ``segments`` entry, the lengths of the point segments an
#: index kept: ``[n]`` for every index today.  Indexes used to keep appended
#: points in a second (delta) segment, and a payload saved with one stores
#: ``[base_n, delta_n]``; :func:`restore_index_image` verifies such a
#: payload under that layout and then refits all of its points.
_FINGERPRINT_VERSION = 2

def _state_attrs(index: DPCIndex):
    """The arrays a restore adopts instead of rebuilding: the CSR rows of a
    list-family index, plus the histograms of CH and RN-CH."""
    if not isinstance(index, NListIndex):
        return ()
    rows = ("_offsets", "_ids", "_dists")
    if isinstance(index, CumulativeHistogramMixin):
        return rows + ("_hist_offsets", "_hist_values")
    return rows


def _dense_rows(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The CSR state of a List or CH payload saved in the dense layout,
    where ``_neighbor_ids`` / ``_neighbor_dists`` held the complete rows as
    ``(n, n-1)`` matrices."""
    state = dict(state)
    ids = state.pop("_neighbor_ids")
    dists = state.pop("_neighbor_dists")
    n, m = dists.shape
    state["_offsets"] = np.arange(n + 1, dtype=np.int64) * m
    state["_ids"] = ids.reshape(-1)
    state["_dists"] = dists.reshape(-1)
    return state


#: Runtime configuration is machine/session state, not index state: the
#: execution backend (repro.indexes.parallel) because a payload built on a
#: 64-core box must restore cleanly on a laptop, and the construction path
#: (``build="bulk"|"objects"``) because results are bit-identical across
#: both and a restored index does not rebuild at all.  These keys are never
#: written and are dropped defensively when found in a (hand-edited /
#: future-version) file.  Keeping ``build`` out of the params also keeps
#: the fingerprint recipe unchanged across this PR.
_EXECUTION_PARAMS = ("backend", "n_jobs", "chunk_size", "build")


def _constructor_params(index: DPCIndex) -> Dict[str, Any]:
    """Keyword arguments that recreate ``index`` (metric by name).

    Deliberately a fixed allowlist — in particular the execution-backend
    knobs (``backend``/``n_jobs``/``chunk_size``) exist on every index but
    must never be serialised (see :data:`_EXECUTION_PARAMS`).
    """
    params: Dict[str, Any] = {"metric": index.metric.name}
    for attr in (
        "build_block_rows",
        "scan_block",
        "bin_width",
        "default_bins",
        "tau",
        "capacity",
        "max_depth",
        "max_entries",
        "min_entries",
        "packing",
        "leaf_size",
        "cell_size",
        "target_occupancy",
        "delta_mode",
        "density_pruning",
        "distance_pruning",
        "frontier",
    ):
        if hasattr(index, attr):
            params[attr] = getattr(index, attr)
    return params


def _resolved_params(index: DPCIndex) -> Dict[str, float]:
    """Fit-resolved values (configured params may be None = auto)."""
    return {
        attr: float(getattr(index, attr))
        for attr in ("bin_width_", "cell_size_")
        if getattr(index, attr, None) is not None
    }


def index_fingerprint(index: DPCIndex) -> str:
    """Stable content fingerprint of a fitted index.

    SHA-256 over the index family, its constructor parameters, the
    fit-resolved parameters and the exact point bytes.  Two indexes with
    equal fingerprints answer every ``quantities``/``cluster`` query
    identically (same family + same params + same points ⇒ deterministic
    build ⇒ identical answers), so the serving layer keys its result cache
    on this string.  Execution-backend configuration is deliberately
    excluded (results are bit-identical across backends); the fingerprint
    survives a :func:`save_index`/:func:`load_index` round trip unchanged.
    """
    if not index.is_fitted:
        raise ValueError("cannot fingerprint an unfitted index; call fit(points) first")
    return _fingerprint(index, index.points, _resolved_params(index), [index.n])


def _fingerprint(index: DPCIndex, points: np.ndarray, resolved, segments) -> str:
    """The fingerprint recipe: ``index`` supplies the family and constructor
    params, the rest is passed in (a legacy payload's layout included)."""
    head = {
        "fingerprint_version": _FINGERPRINT_VERSION,
        "index": index.name,
        "params": _constructor_params(index),
        "resolved": resolved,
        "dtype": str(points.dtype),
        "shape": list(points.shape),
        "segments": [int(s) for s in segments],
    }
    digest = hashlib.sha256(json.dumps(head, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(points).tobytes())
    return digest.hexdigest()


def _flat_digest(flat: FlatTree) -> str:
    """SHA-256 over a flat tree image (levels + every array, fixed order).

    The content fingerprint hashes family + params + points — enough when
    every structure was rebuilt from those points on load.  A persisted
    flat image is loaded verbatim instead, so it carries its own integrity
    hash: without one, a payload with intact points but corrupted or
    hand-edited ``flat*`` arrays would load cleanly and silently serve
    wrong answers under a fingerprint honest snapshots share.  Like the
    fingerprint, this is a keyless checksum — it catches corruption and
    casual edits, not an adversary who recomputes the digest; snapshot
    files are trusted inputs.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps([[int(a), int(b)] for a, b in flat.levels]).encode()
    )
    for name in FlatTree.ARRAY_FIELDS:
        value = np.ascontiguousarray(getattr(flat, name))
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(json.dumps(list(value.shape)).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def export_index_image(index: DPCIndex) -> "tuple[Dict[str, Any], Dict[str, np.ndarray]]":
    """A fitted index as ``(meta, arrays)`` — the persisted payload, in memory.

    ``meta`` is the JSON-safe header :func:`save_index` writes (format
    version, constructor params, fingerprint, flat-image layout);
    ``arrays`` the named numpy payload (``points``, per-family
    state, the flat query image).  :func:`restore_index_image` is the exact
    inverse.  ``save_index`` is this plus an atomic file write — the split
    exists so the serving tier can publish the same image into shared
    memory and have worker processes attach and restore it **without a file
    round trip or a per-worker copy** (the restored index's big arrays are
    views into the attached segment).
    """
    if not index.is_fitted:
        raise ValueError("cannot save an unfitted index; call fit(points) first")
    meta = {
        "format_version": _FORMAT_VERSION,
        "index_name": index.name,
        "params": _constructor_params(index),
        "build_seconds": index.build_seconds,
        "fingerprint": index_fingerprint(index),
        "fingerprint_version": _FINGERPRINT_VERSION,
        "segments": [index.n],
    }
    # The CH histograms were built with the *resolved* bin width, so a
    # restored index must query with it, not re-resolve.  (Indexes that
    # rebuild from points on load re-resolve deterministically and ignore
    # this; it must stay in lockstep with the fingerprint recipe.)
    resolved = _resolved_params(index)
    if resolved:
        meta["resolved"] = resolved
    arrays = {"points": index.points}
    state = _state_attrs(index)
    meta["state_attrs"] = list(state)
    for attr in state:
        value = getattr(index, attr)
        if value is None:
            raise ValueError(f"index state {attr} is missing; index looks corrupt")
        arrays[f"state{attr}"] = value
    if isinstance(index, RNListIndex):
        meta["big_delta"] = float(index._big_delta)
    if isinstance(index, TreeIndexBase):
        # Persist the flattened query image: a load (serving cold start)
        # then skips both the rebuild and the re-flatten.
        flat = index._flat_tree()
        for name in FlatTree.ARRAY_FIELDS:
            arrays[f"flat{name}"] = getattr(flat, name)
        meta["flat"] = {
            "levels": [[int(a), int(b)] for a, b in flat.levels],
            "n_nodes": int(flat.n_nodes),
            "build": index.build_,
            "digest": _flat_digest(flat),
        }
    return meta, arrays


def save_index(index: DPCIndex, path: str) -> None:
    """Serialise a fitted index to ``path`` (a ``.npz`` file), atomically.

    The payload lands in a same-directory temp file first and is renamed
    over ``path`` only once fully written and fsynced — a crash mid-save
    (power loss, OOM kill, the injected ``persist.save`` fault) leaves the
    previous file intact or no file at all, never a truncated one.
    """
    meta, arrays = export_index_image(index)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"  # np.savez appends it; the rename target must match
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, meta=json.dumps(meta), **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        # Chaos point: a crash here (temp written, not yet renamed) must
        # leave the previous payload at ``path`` untouched.
        faults.trip("persist.save")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if faults.decide("persist.payload") is not None:
        _flip_byte(path)  # simulated bitrot, after the durable rename


def _flip_byte(path: str) -> None:
    """XOR one mid-file byte in place (fault injection only)."""
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        offset = size // 2
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def load_index(path: str, quarantine: bool = True) -> DPCIndex:
    """Restore an index saved by :func:`save_index`.

    List-based indexes come back without recomputation; tree indexes
    restore their persisted flat image (no rebuild, no re-flatten); the
    grid rebuilds from the stored points with the stored parameters.

    An unreadable payload (truncated file, bitrot) or a failed integrity
    check raises :class:`CorruptSnapshotError`; unless ``quarantine=False``
    the bad file is first renamed to ``<path>.corrupt`` so a retry loop
    fails cleanly instead of re-reading the same bytes.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {key: data[key] for key in data.files if key != "meta"}
            if "points" not in arrays:
                raise KeyError("points")
    except FileNotFoundError:
        raise  # missing ≠ corrupt: the caller's path is simply wrong
    except KeyError:
        raise  # a valid .npz that isn't an index file (wrong file, not rot)
    except (zipfile.BadZipFile, zlib.error, struct.error, EOFError, ValueError, OSError) as exc:
        raise _corrupt(
            path,
            f"unreadable index payload in {path!r} "
            f"({type(exc).__name__}: {exc}) — file truncated or corrupt",
            quarantine,
        ) from exc
    try:
        return restore_index_image(meta, arrays)
    except CorruptSnapshotError as exc:
        # Integrity failures gain the file context (and quarantine) here;
        # in-memory restores (the serving workers) surface them bare.
        raise _corrupt(path, f"{exc} — payload {path!r}", quarantine) from exc


def restore_index_image(
    meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> DPCIndex:
    """Rebuild a fitted index from an exported ``(meta, arrays)`` image.

    The exact inverse of :func:`export_index_image`, and the shared tail of
    :func:`load_index`: list-based families restore their precomputed
    arrays without recomputation, tree families adopt the flat query image
    verbatim (digest-checked), and the grid refits deterministically from
    the points.
    The restored index keeps **views** of the arrays it was handed wherever
    it can — restoring from shared-memory-attached arrays copies nothing
    big — and the stored content fingerprint is re-verified, so a corrupt
    or torn image raises :class:`CorruptSnapshotError` (without the file
    quarantine, which only :func:`load_index` owns) instead of serving
    wrong answers.
    """
    points = arrays["points"]
    state_attrs = meta.get("state_attrs", [])
    state = {attr: arrays[f"state{attr}"] for attr in state_attrs}
    flat_meta = meta.get("flat")
    flat_arrays = (
        {name_: arrays[f"flat{name_}"] for name_ in FlatTree.ARRAY_FIELDS}
        if flat_meta is not None
        else None
    )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index file version {meta.get('format_version')!r}"
        )
    name = meta["index_name"]
    if name not in INDEX_CLASSES:
        raise ValueError(f"file holds unknown index type {name!r}")
    cls = INDEX_CLASSES[name]
    params = dict(meta["params"])
    for key in _EXECUTION_PARAMS:
        params.pop(key, None)

    index = cls(**params)
    segments = meta.get("segments") or [len(points)]
    if len(segments) > 1:
        return _restore_segmented(index, meta, points, segments)
    if "_neighbor_ids" in state:
        state = _dense_rows(state)
    if state:
        # Restore without rebuilding: place points + arrays directly.
        index.points = np.ascontiguousarray(points, dtype=np.float64)
        for attr, value in state.items():
            setattr(index, attr, value)
        for attr, value in meta.get("resolved", {}).items():
            setattr(index, attr, value)
        if "big_delta" in meta:
            index._big_delta = meta["big_delta"]
        index.build_seconds = float(meta.get("build_seconds", float("nan")))
    elif flat_arrays is not None and isinstance(index, TreeIndexBase):
        # Restore the flat query image directly — no rebuild, no flatten.
        index.points = np.ascontiguousarray(points, dtype=np.float64)
        flat = FlatTree.from_arrays(
            flat_arrays, flat_meta["levels"], flat_meta["n_nodes"]
        )
        # Every file that carries flat arrays carries their digest (no older
        # format ever wrote them), so absence is as suspect as a mismatch —
        # accepting it would let an edited payload skip the integrity check.
        stored_digest = flat_meta.get("digest")
        if stored_digest is None:
            raise CorruptSnapshotError(
                "flat image has no integrity digest — image corrupt or "
                "hand-edited"
            )
        actual_digest = _flat_digest(flat)
        if actual_digest != stored_digest:
            raise CorruptSnapshotError(
                f"flat-image digest mismatch: stored {stored_digest[:12]}…, "
                f"recomputed {actual_digest[:12]}… — image corrupt or "
                "hand-edited"
            )
        index._flat = flat
        index.build_ = flat_meta.get("build")
        index.build_seconds = float(meta.get("build_seconds", float("nan")))
    else:
        # Families that rebuild from points on load (the grid).
        index.fit(points)
    if _verify_fingerprint(meta, lambda: index_fingerprint(index)):
        index._fingerprint_ = meta["fingerprint"]
    return index


def _restore_segmented(index: DPCIndex, meta, points, segments) -> DPCIndex:
    """A payload saved while its index kept appended points in a delta
    segment (``segments == [base_n, delta_n]``).  Its fingerprint hashes
    that layout and the fit-resolved params of the base: verify it so, then
    refit all the points, which answers every query bit-identically (the
    fresh index fingerprints under today's one-segment layout)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    _verify_fingerprint(
        meta, lambda: _fingerprint(index, points, meta.get("resolved", {}), segments)
    )
    return index.fit(points)


def _verify_fingerprint(meta, recompute) -> bool:
    """Check the stored fingerprint against ``recompute()``; ``False`` when
    there is nothing to check.

    A payload from an older/newer recipe skips verification; its
    fingerprint is simply recomputed lazily under the current recipe.
    Otherwise the restored content must hash to what was saved — a mismatch
    means the file was edited or the recipe drifted, and a serving cache
    keyed on the stale string would silently miss (or, worse, a hand-edited
    payload could impersonate another snapshot).
    """
    stored = meta.get("fingerprint")
    if stored is None or meta.get("fingerprint_version") != _FINGERPRINT_VERSION:
        return False
    actual = recompute()
    if actual != stored:
        raise CorruptSnapshotError(
            f"fingerprint mismatch: stored {stored[:12]}…, recomputed "
            f"{actual[:12]}… — image corrupt or hand-edited"
        )
    return True
