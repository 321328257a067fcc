"""Package export table: every public name resolves lazily."""

import pytest

import outage_planner


@pytest.mark.parametrize("name", outage_planner.__all__)
def test_export_resolves(name):
    assert outage_planner.__getattr__(name) is getattr(outage_planner, name)
