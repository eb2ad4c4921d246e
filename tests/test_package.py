import wristsim


def test_public_names_resolve():
    """Every name in ``__all__`` exists, so a removed one cannot linger."""
    missing = [name for name in wristsim.__all__ if not hasattr(wristsim, name)]
    assert not missing
    assert len(set(wristsim.__all__)) == len(wristsim.__all__)
    namespace = {}
    exec("from wristsim import *", namespace)
    assert set(wristsim.__all__) <= set(namespace)
