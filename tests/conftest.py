"""Shared fixtures: a small hand-checkable toy cube plus TPC-D material."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import CubeSchema, Dimension, Measure, TPCDGenerator, make_tpcd_schema
from repro.core.mds import MDS

# Tiered Hypothesis profiles: "ci" runs the full example budget, "dev"
# keeps the suite fast during iteration.  Select with HYPOTHESIS_PROFILE.
settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def build_toy_schema():
    """A two-dimensional cube small enough to reason about by hand.

    * Geo:   City [0] < Country [1]   (ALL at level 2)
    * Color: Color [0]                (ALL at level 1)
    * one measure: Sales
    """
    return CubeSchema(
        dimensions=[
            Dimension("Geo", ("City", "Country")),
            Dimension("Color", ("Color",)),
        ],
        measures=[Measure("Sales")],
    )


def toy_record(schema, country, city, color, sales):
    """One toy record from labels (Country > City; Color)."""
    return schema.record(((country, city), (color,)), (sales,))


def adapted(mds, levels, hierarchies):
    """A copy of ``mds`` with every dimension lifted to ``levels``."""
    return MDS(
        [mds.adapted_set(dim, level, hierarchies[dim])
         for dim, level in enumerate(levels)],
        levels,
    )


TOY_ROWS = (
    ("DE", "Munich", "red", 10.0),
    ("DE", "Munich", "blue", 20.0),
    ("DE", "Berlin", "red", 5.0),
    ("FR", "Paris", "blue", 7.0),
    ("FR", "Lyon", "green", 3.0),
    ("US", "NYC", "red", 40.0),
    ("US", "Boston", "green", 11.0),
)


@pytest.fixture
def toy_schema():
    return build_toy_schema()


@pytest.fixture
def toy_records(toy_schema):
    return [toy_record(toy_schema, *row) for row in TOY_ROWS]


@pytest.fixture
def tpcd_schema():
    return make_tpcd_schema()


@pytest.fixture
def tpcd_records_500(tpcd_schema):
    generator = TPCDGenerator(tpcd_schema, seed=42, scale_records=500)
    return generator.generate(500)
