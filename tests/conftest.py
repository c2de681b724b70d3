"""Every test starts from an empty fan memo and quotient table: ``kfan.cli``
keeps the fans it has built for the later commands of the process, and
``intlinalg.quotient`` the groups it has reduced, so a test that patches
or counts a builder or a reduction would otherwise read what an earlier
test built."""

import pytest

from kfan import cli, intlinalg


@pytest.fixture(autouse=True)
def cold_fan_memo():
    cli._built.cache_clear()
    intlinalg.quotient.cache_clear()
