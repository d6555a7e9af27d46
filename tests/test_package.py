"""The package's public names."""

import prevratio


def test_every_exported_name_resolves():
    missing = [name for name in prevratio.__all__ if not hasattr(prevratio, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    assert len(set(prevratio.__all__)) == len(prevratio.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from prevratio import *", namespace)
    assert set(prevratio.__all__) <= namespace.keys()
