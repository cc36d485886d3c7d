"""Every CLI output, byte for byte, against the files under tests/golden/."""

from golden_runs import GOLDEN, RUNS, pinned, run_all


def test_every_cli_output_matches_its_golden_file(tmp_path, capsys):
    assert run_all(tmp_path) == {name: 0 for name in RUNS}
    got = pinned(tmp_path)
    want = pinned(GOLDEN)
    # A .sha256 file is pinned as itself.
    assert sorted(got) == sorted(want)
    moved = [rel for rel in want if got[rel] != want[rel]]
    assert not moved, f"outputs differ from tests/golden/: {moved}"
