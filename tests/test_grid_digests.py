from pathlib import Path

from grid_digests import differences, digest_lines

EXPECTED = Path(__file__).with_name("grid_digests.expected")


def test_differences_name_each_changed_missing_and_extra_line():
    saved = "a csv 1 fits 2\nb csv 3 fits 4\nc csv 5\n"
    assert differences(saved, saved) == []
    assert differences(saved, "a csv 1 fits 2\nb csv 9 fits 4\n") == [
        "- b csv 3 fits 4",
        "+ b csv 9 fits 4",
        "- c csv 5",
    ]
    assert differences("a\n", "a\nb\n") == ["+ b"]


def test_guarded_grids_match_the_committed_digests():
    # A change that means to move a report updates grid_digests.expected with
    # `PYTHONPATH=src python tests/grid_digests.py > tests/grid_digests.expected`.
    current = "\n".join(digest_lines()) + "\n"
    diff = differences(EXPECTED.read_text(), current)
    assert not diff, "grids differ from tests/grid_digests.expected:\n" + "\n".join(diff)
