"""The opt-in switch: a test marked `opt_in` runs only when POPLAT_OPT_IN is
set, and the acceptance tests read `opted_in` for their opt-in sizes."""
import os

import pytest


def opted_in() -> bool:
    return bool(os.environ.get("POPLAT_OPT_IN"))


def pytest_collection_modifyitems(config, items):
    if opted_in():
        return
    skip = pytest.mark.skip(reason="set POPLAT_OPT_IN=1")
    for item in items:
        if item.get_closest_marker("opt_in"):
            item.add_marker(skip)
