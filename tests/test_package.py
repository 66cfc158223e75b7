import twinfringe


def test_public_names_are_unique_and_resolve():
    names = twinfringe.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(twinfringe, name)]
    assert not missing
