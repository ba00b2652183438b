"""Static materialized aggregate views, view selection, hybrid routing."""

from .advisor import (
    ViewRecommendation,
    candidate_levels,
    covers,
    estimate_cells,
    recommend_views,
)
from .hybrid import HybridWarehouse, RouterStats
from .view import (
    MaterializedAggregateView,
    StaleViewError,
    UnanswerableQueryError,
)

__all__ = [
    "HybridWarehouse",
    "MaterializedAggregateView",
    "RouterStats",
    "StaleViewError",
    "UnanswerableQueryError",
    "ViewRecommendation",
    "candidate_levels",
    "covers",
    "estimate_cells",
    "recommend_views",
]
