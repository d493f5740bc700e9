"""Report formatting for the benchmark suite and sweep summaries."""

from repro.bench.tables import format_kv, format_series, format_table

__all__ = ["format_table", "format_series", "format_kv"]
