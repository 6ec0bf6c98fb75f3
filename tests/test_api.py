"""The package's export list."""

import superschur


def test_every_exported_name_resolves_once():
    names = superschur.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(superschur, n)]
    assert not missing
