import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pblocksim.blocked
import pblocksim.approx


@pytest.fixture(autouse=True)
def _debug_checks():
    """Run every test with the engines' internal self-assertions switched on."""
    pblocksim.blocked.DEBUG_CHECKS = True
    pblocksim.approx.DEBUG_CHECKS = True
    yield
    pblocksim.blocked.DEBUG_CHECKS = False
    pblocksim.approx.DEBUG_CHECKS = False
