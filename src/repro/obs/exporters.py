"""Exporters: JSONL event log, Prometheus text dump, summary table.

All three render the same row set (:meth:`MetricsRegistry.to_rows`), so
an exported JSONL file and a live registry produce identical summaries:
``load_jsonl`` is the loader behind the table exporter, which is what
makes the log round-trippable (write -> load -> table) for offline
analysis of a finished run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from repro.obs.instruments import KIND_GAUGE, KIND_HISTOGRAM, render_name
from repro.obs.registry import AnyRegistry
from repro.recovery.atomic import atomic_write_text

#: Formats understood by :func:`export`, mirrored by the CLI's
#: ``--metrics-format`` choices.
FORMATS = ("jsonl", "prom", "table")


# -- JSONL ---------------------------------------------------------------------

def write_jsonl(metrics: AnyRegistry, path: Union[str, Path]) -> int:
    """Dump the registry as one JSON object per line; returns row count.

    Written atomically (tmp + fsync + rename) so a crash mid-export can
    never leave a truncated log over a previous good one.  Strict JSON:
    a non-finite value raises instead of writing ``Infinity``/``NaN``.
    """
    rows = metrics.to_rows()
    atomic_write_text(Path(path), "".join(
        json.dumps(row, sort_keys=True, allow_nan=False) + "\n"
        for row in rows))
    return len(rows)


def load_jsonl(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Parse a metrics JSONL file back into export rows."""
    rows = []
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON") from exc
    return rows


# -- Prometheus text format ----------------------------------------------------

def render_prometheus(metrics: AnyRegistry) -> str:
    """Cumulative instrument state in the Prometheus exposition format."""
    return render_prometheus_rows(metrics.to_rows())


def render_prometheus_rows(rows: list[dict[str, Any]]) -> str:
    lines: list[str] = []
    typed: set[str] = set()
    for row in rows:
        if row.get("type") != "summary":
            continue
        name = row["metric"]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {row['kind']}")
        labels = tuple(sorted(row.get("labels", {}).items()))
        if row["kind"] == KIND_HISTOGRAM:
            count = row.get("count", 0)
            lines.append(
                f"{render_name(name + '_count', labels)} {count}")
            lines.append(
                f"{render_name(name + '_sum', labels)} "
                f"{row.get('sum', 0.0):.10g}")
            for key in sorted(row):
                if key.startswith("p") and key[1:].isdigit():
                    quantile = int(key[1:]) / 100.0
                    q_labels = labels + (("quantile", f"{quantile:g}"),)
                    lines.append(f"{render_name(name, q_labels)} "
                                 f"{row[key]:.10g}")
        else:
            lines.append(
                f"{render_name(name, labels)} {row['value']:.10g}")
            if row["kind"] == KIND_GAUGE and "peak" in row:
                lines.append(
                    f"{render_name(name + '_peak', labels)} "
                    f"{row['peak']:.10g}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- summary table -------------------------------------------------------------

def render_summary_table(rows: list[dict[str, Any]]) -> str:
    """Human-readable per-metric summary of exported (or live) rows.

    This consumes the *row* representation -- the output of
    :func:`load_jsonl` or :meth:`MetricsRegistry.to_rows` -- so dumped
    logs and live registries render identically.
    """
    # Imported here: the serving tier exports metrics but renders no
    # table, and the analysis package's import pulls in its CDFs.
    from repro.analysis.tables import TextTable
    series_bins: dict[tuple[str, str], int] = {}
    for row in rows:
        if row.get("type") == "series":
            key = (row["metric"], json.dumps(row.get("labels", {}),
                                             sort_keys=True))
            series_bins[key] = series_bins.get(key, 0) + 1

    table = TextTable(
        ["metric", "kind", "value", "p50", "p99", "peak", "bins"],
        formats=["", "", ".6g", ".6g", ".6g", ".6g", "d"])
    summaries = sorted(
        (row for row in rows if row.get("type") == "summary"),
        key=lambda row: (row["metric"],
                         sorted(row.get("labels", {}).items())))
    for row in summaries:
        labels = tuple(sorted(row.get("labels", {}).items()))
        key = (row["metric"], json.dumps(row.get("labels", {}),
                                         sort_keys=True))
        table.add_row(
            render_name(row["metric"], labels),
            row["kind"],
            row.get("value", 0.0),
            row.get("p50", "-"),
            row.get("p99", "-"),
            row.get("peak", "-"),
            series_bins.get(key, 0))
    spans = [row for row in rows if row.get("type") == "span"]
    rendered = table.render()
    if spans:
        span_table = TextTable(
            ["span", "wall (s)", "sim (s)"],
            formats=["", ".4g", ".6g"])
        for row in spans:
            span_table.add_row(
                row.get("name", "?"), row.get("wall_seconds", 0.0),
                row.get("sim_end", 0.0) - row.get("sim_start", 0.0))
        rendered += "\n\n" + span_table.render()
    return rendered


def summary_table(metrics: AnyRegistry) -> str:
    return render_summary_table(metrics.to_rows())


# -- one-stop export -----------------------------------------------------------

def export(metrics: AnyRegistry, fmt: str,
           path: Union[str, Path, None] = None) -> str:
    """Export ``metrics`` as ``fmt``; write to ``path`` when given.

    Returns the rendered text for ``prom``/``table`` (also written to
    ``path`` if provided); for ``jsonl`` a ``path`` is required and a
    short confirmation string is returned.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown metrics format {fmt!r}; "
                         f"expected one of {FORMATS}")
    if fmt == "jsonl":
        if path is None:
            raise ValueError("jsonl export needs an output path")
        count = write_jsonl(metrics, path)
        return f"wrote {count} metric rows to {path}"
    text = render_prometheus(metrics) if fmt == "prom" \
        else summary_table(metrics)
    if path is not None:
        atomic_write_text(Path(path), text if text.endswith("\n")
                          else text + "\n")
    return text
