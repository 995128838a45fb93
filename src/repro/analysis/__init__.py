"""Post-hoc analysis of experiment results: summaries and comparisons."""

from repro.analysis.compare import ComparisonReport, compare_results, summarize_result
from repro.analysis.tables import describe_config, summarize_directory

__all__ = [
    "ComparisonReport",
    "describe_config",
    "summarize_directory",
    "compare_results",
    "summarize_result",
]
