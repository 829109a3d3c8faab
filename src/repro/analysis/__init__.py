"""Result analysis: statistics, tables, DOT export."""

from repro.analysis.dot import constraint_graph_dot, transition_system_dot
from repro.analysis.stats import Summary, percentile, summarize
from repro.analysis.tables import print_table, render_table

__all__ = [
    "Summary",
    "constraint_graph_dot",
    "percentile",
    "print_table",
    "render_table",
    "summarize",
    "transition_system_dot",
]
