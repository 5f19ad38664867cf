"""Geometric substrate shared by every index: metrics and their rectangle bounds."""

from repro.geometry.distance import (
    Metric,
    available_metrics,
    get_metric,
    pairwise_distances,
    pairwise_blocks,
    distances_to_point,
)

__all__ = [
    "Metric",
    "available_metrics",
    "get_metric",
    "pairwise_distances",
    "pairwise_blocks",
    "distances_to_point",
]
