"""The package namespace: every exported name must resolve."""

import lowprec


def test_every_name_in_all_resolves():
    assert len(lowprec.__all__) == len(set(lowprec.__all__))
    for name in lowprec.__all__:
        assert getattr(lowprec, name) is not None, name
