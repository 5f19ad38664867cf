"""Exposition: Prometheus text rendering, parsing, and JSON stats dumps.

:func:`render_prometheus` turns the metrics registry into the Prometheus
text exposition format (``# HELP`` / ``# TYPE`` comments, cumulative
``_bucket{le=...}`` / ``_sum`` / ``_count`` series for histograms) served
by ``GET /metrics``.  :func:`parse_prometheus` is the inverse used by the
test suite and the failover drill to assert the endpoint stays
well-formed.  :func:`dump_stats_json` backs
``python -m repro cluster --stats-json PATH``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as metrics_mod

__all__ = [
    "dump_stats_json",
    "metrics_snapshot",
    "parse_prometheus",
    "phase_totals",
    "render_prometheus",
]

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, labels[k]) for k in labels]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(registry: Optional[metrics_mod.MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    registry = registry or metrics_mod.REGISTRY
    lines: List[str] = []
    for family in registry.collect():
        name, kind = family["name"], family["kind"]
        lines.append(f"# HELP {name} {_escape(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            bounds = family["bucket_bounds"]
            for sample in family["samples"]:
                labels = sample["labels"]
                cumulative = 0
                for bound, count in zip(bounds, sample["buckets"]):
                    cumulative += count
                    le = _labels_text(labels, ("le", _fmt(bound)))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += sample["buckets"][-1]
                lines.append(f'{name}_bucket{_labels_text(labels, ("le", "+Inf"))} {cumulative}')
                lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(sample['sum'])}")
                lines.append(f"{name}_count{_labels_text(labels)} {sample['count']}")
        else:
            for sample in family["samples"]:
                lines.append(f"{name}{_labels_text(sample['labels'])} {_fmt(sample['value'])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text into ``{series_name: [(labels, value), ...]}``.

    Histogram series appear under their expanded names (``*_bucket``,
    ``*_sum``, ``*_count``).  Raises :class:`ValueError` on any malformed
    non-comment line, which is what makes it useful as a format check.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = pair.group(2).replace('\\"', '"').replace("\\\\", "\\")
                consumed = pair.end()
            if raw[consumed:].strip(", "):
                raise ValueError(f"malformed labels on line {lineno}: {raw!r}")
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def metrics_snapshot(registry: Optional[metrics_mod.MetricsRegistry] = None) -> dict:
    """A JSON-serialisable snapshot of every instrument family."""
    registry = registry or metrics_mod.REGISTRY
    return {family["name"]: family for family in registry.collect()}


def phase_totals(trace_tree: dict) -> Dict[str, float]:
    """Total milliseconds per span name across one trace tree."""
    totals: Dict[str, float] = {}

    def walk(node: dict) -> None:
        if not node:
            return
        totals[node["name"]] = totals.get(node["name"], 0.0) + node["duration_ns"] / 1e6
        for child in node.get("children", ()):
            walk(child)

    walk(trace_tree)
    return totals


def dump_stats_json(
    path: str,
    trace_tree: Optional[dict] = None,
    extra: Optional[dict] = None,
    registry: Optional[metrics_mod.MetricsRegistry] = None,
) -> dict:
    """Write ``{metrics, trace, ...extra}`` to ``path``; returns the payload."""
    payload = {
        "schema_version": 1,
        "metrics": metrics_snapshot(registry),
    }
    if trace_tree is not None:
        payload["trace"] = trace_tree
        payload["phase_ms"] = phase_totals(trace_tree)
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
