"""Tests for the public API of the forestloc package."""

import forestloc


def test_all_names_resolve_once():
    names = forestloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forestloc, name)]
    assert missing == []
