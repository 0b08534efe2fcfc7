"""Analysis and reporting utilities."""

from repro.analysis.charts import bar_chart, grouped_bar_chart, sparkline
from repro.analysis.sharing import SHARING_BUCKETS, sharing_profile
from repro.analysis.timeline import TimelineRecorder, timeline_chart
from repro.analysis.report import format_table

__all__ = [
    "SHARING_BUCKETS",
    "TimelineRecorder",
    "bar_chart",
    "grouped_bar_chart",
    "sparkline",
    "format_table",
    "sharing_profile",
    "timeline_chart",
]
