import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pblocksim.approx


@pytest.fixture(autouse=True)
def _debug_checks():
    """Run every test with the approx engine's self-assertions switched on."""
    pblocksim.approx.DEBUG_CHECKS = True
    yield
    pblocksim.approx.DEBUG_CHECKS = False
