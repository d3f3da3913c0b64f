"""The seeded invariant suites of `unitroots selftest`, run end to end."""

from unitroots.selftest import SUITES, run_selftest


def test_every_selftest_suite_passes():
    results = run_selftest()
    assert [name for name, _, _ in results] == [name for name, _ in SUITES]
    assert [(name, detail) for name, ok, detail in results if not ok] == []
