import colorfault


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone fails only on `import *`
    missing = [name for name in colorfault.__all__ if not hasattr(colorfault, name)]
    assert missing == []
    assert len(set(colorfault.__all__)) == len(colorfault.__all__)
