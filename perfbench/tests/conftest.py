"""Make the benchmark modules and the package sources importable, and give
each test a scratch directory inside the checkout."""

import os
import shutil
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
for path in (os.path.join(ROOT, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def workdir(request):
    path = os.path.join(ROOT, ".perfbench_work", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
