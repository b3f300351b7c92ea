import kflow


def test_every_exported_name_resolves():
    missing = [name for name in kflow.__all__ if not hasattr(kflow, name)]
    assert missing == []
