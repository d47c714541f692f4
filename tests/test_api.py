import specseq


def test_all_names_resolve_once():
    names = specseq.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(specseq, name)] == []
    namespace = {}
    exec("from specseq import *", namespace)
    assert set(names) <= set(namespace)
