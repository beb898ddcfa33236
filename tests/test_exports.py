"""Every exported name resolves, so a removal cannot leave a dangling export."""

import pytest

import sasakijoin
import sasakijoin.exactmath


@pytest.mark.parametrize("module", [sasakijoin, sasakijoin.exactmath],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
