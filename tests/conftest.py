"""Every test starts from an empty fan memo: ``kfan.cli`` keeps the fans
it has built for the later commands of the process, so a test that
patches or counts a builder would otherwise read a fan an earlier test
built."""

import pytest

from kfan import cli


@pytest.fixture(autouse=True)
def cold_fan_memo():
    cli._built.cache_clear()
