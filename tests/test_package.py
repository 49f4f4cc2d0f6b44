import locus


def test_every_exported_name_resolves():
    missing = [name for name in locus.__all__ if not hasattr(locus, name)]
    assert missing == []
