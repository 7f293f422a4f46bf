"""The package's public surface."""

import anoma


def test_every_exported_name_resolves():
    missing = [name for name in anoma.__all__ if not hasattr(anoma, name)]
    assert not missing
