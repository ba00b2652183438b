"""Range-query workloads: generation and label queries."""

from .queries import QueryGenerator, RangeQuery, query_from_labels

__all__ = [
    "QueryGenerator",
    "RangeQuery",
    "query_from_labels",
]
