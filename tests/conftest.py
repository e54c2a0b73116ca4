import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))


def pytest_collection_modifyitems(items):
    # A warning no test expects fails the test.  Prepended, the mark has the
    # lowest precedence, so a test's own filterwarnings marks and
    # pytest.warns still win.
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
