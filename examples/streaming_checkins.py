"""Live evolving-hotspot clustering of a check-in stream (extension).

Real check-in streams are non-stationary: the metro that dominates the
volume changes over time.  This demo ingests a drifting simulated stream
(:func:`repro.datasets.simulate_checkin_stream`) into a
:class:`~repro.extras.StreamingDPC` — every batch refits its R-tree, and
each exact answer is repaired from the previous one instead of recomputed —
and contrasts three density views at each checkpoint:

* **cumulative** — exact ρ over everything seen (the old hotspot never
  fades: history dominates);
* **windowed** — only the trailing window counts (hard cut-off recency);
* **decayed** — old arrivals' density contribution halves every
  ``half_life`` arrivals (smooth recency).

The reported "hot city" is the city centre nearest the ρ-max point of each
view: the recency views track the drift while the cumulative view lags.

Run:  python examples/streaming_checkins.py
"""

import numpy as np

from repro.datasets import simulate_checkin_stream
from repro.extras import StreamingDPC


def hot_city(points: np.ndarray, rho: np.ndarray, centers: np.ndarray) -> int:
    """City whose centre is nearest the densest point of a view."""
    peak = points[int(np.argmax(rho))]
    return int(np.argmin(((centers - peak) ** 2).sum(axis=1)))


def main() -> None:
    n_batches, batch_size = 16, 500
    batches, centers = simulate_checkin_stream(
        n_batches, batch_size, n_cities=25, seed=7
    )
    dc = 0.35
    window = 2 * batch_size
    half_life = 1.5 * batch_size

    stream = StreamingDPC()
    print(
        f"drifting check-in stream: {n_batches} batches x {batch_size} points, "
        f"dc = {dc}\nwindow = {window} arrivals, half-life = {half_life:g} arrivals\n"
    )
    print(
        f"{'batch':>5} {'points':>7} "
        f"{'hot(cumulative)':>15} {'hot(windowed)':>13} {'hot(decayed)':>12}"
    )

    for i, (points, _labels) in enumerate(batches, start=1):
        stream.add(points)
        if i % 4 and i != n_batches:
            continue
        pts = stream.points()
        full = stream.quantities(dc)
        win = stream.windowed_quantities(dc, window=window)
        dec = stream.decayed_quantities(dc, half_life=half_life)
        print(
            f"{i:>5} {stream.n:>7} "
            f"{'city ' + str(hot_city(pts, full.rho, centers)):>15} "
            f"{'city ' + str(hot_city(pts[-window:], win.rho, centers)):>13} "
            f"{'city ' + str(hot_city(pts, dec.rho, centers)):>12}"
        )

    result = stream.cluster(dc)
    print(
        f"\nfinal exact clustering: {result.n_clusters} clusters over "
        f"{stream.n} points — every intermediate view was exact, and the "
        "recency views followed the hotspot drift that the cumulative "
        "density hides."
    )


if __name__ == "__main__":
    main()
