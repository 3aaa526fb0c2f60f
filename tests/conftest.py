"""Every test starts and ends without chunk workers.

The workers of ``verify``'s chunk pool are forked once and kept across
cases, so a worker forked before a test's ``monkeypatch`` would never see
the patch and would run the unpatched code.
"""

import pytest

from whitneygeo import verify


@pytest.fixture(autouse=True)
def _no_chunk_workers():
    verify._close_pool()
    yield
    verify._close_pool()
