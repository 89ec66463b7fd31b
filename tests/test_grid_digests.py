from grid_digests import differences


def test_differences_name_each_changed_missing_and_extra_line():
    saved = "a csv 1 fits 2\nb csv 3 fits 4\nc csv 5\n"
    assert differences(saved, saved) == []
    assert differences(saved, "a csv 1 fits 2\nb csv 9 fits 4\n") == [
        "- b csv 3 fits 4",
        "+ b csv 9 fits 4",
        "- c csv 5",
    ]
    assert differences("a\n", "a\nb\n") == ["+ b"]
