"""Every test starts from an empty fan memo and quotient table: ``kfan.cli``
keeps the fans it has built for the later commands of the process, and
``intlinalg.quotient`` the groups it has reduced, so a test that patches
or counts a builder or a reduction would otherwise read what an earlier
test built.  Each cone's dual and Hilbert basis and the whole fan's
agreement walk are kept on the memoized fan's own objects, so emptying
the fan memo drops them too."""

import pytest

from kfan import cli, intlinalg


@pytest.fixture(autouse=True)
def cold_fan_memo():
    cli._built.cache_clear()
    intlinalg.quotient.cache_clear()
