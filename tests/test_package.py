"""The package's public surface."""

import acso


def test_every_export_resolves():
    for name in acso.__all__:
        assert hasattr(acso, name), name
