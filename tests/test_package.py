import logent


def test_every_exported_name_resolves():
    missing = [name for name in logent.__all__ if not hasattr(logent, name)]
    assert missing == []
