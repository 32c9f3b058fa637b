import bayespd


def test_all_names_resolve_without_duplicates():
    assert len(bayespd.__all__) == len(set(bayespd.__all__))
    assert [name for name in bayespd.__all__ if not hasattr(bayespd, name)] == []
    namespace: dict = {}
    exec("from bayespd import *", namespace)
    assert set(bayespd.__all__) <= set(namespace)
