"""Warehouse operation modes: the §1 batch-update regime."""

from .batch import BatchWarehouse, MaintenanceStats

__all__ = [
    "BatchWarehouse",
    "MaintenanceStats",
]
