import gpdiag


def test_all_names_resolve_without_duplicates():
    assert len(gpdiag.__all__) == len(set(gpdiag.__all__))
    missing = [name for name in gpdiag.__all__ if not hasattr(gpdiag, name)]
    assert not missing, f"gpdiag.__all__ names undefined attributes: {missing}"
