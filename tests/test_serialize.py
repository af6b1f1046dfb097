"""File writing checks: the CSV layout, atomic replacement and file modes."""

import os
import stat

import pytest

from consumerlab.serialize import write_csv


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], iter(["1,2", "3,4"]), trailer="# n = 2")
    assert path.read_bytes() == b"a,b\n1,2\n3,4\n# n = 2\n"
    write_csv(str(path), ["a"], [])
    assert path.read_bytes() == b"a\n"


def test_failed_write_leaves_destination_and_no_temp_file(tmp_path):
    # rows are formatted while the temp file is open: a row that fails
    # part-way must neither touch the destination nor leave the temp file
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a"], ["1", "2"])
    before = path.read_bytes()

    def rows():
        yield "3"
        yield "4"
        raise RuntimeError("row 3 failed")

    with pytest.raises(RuntimeError, match="row 3 failed"):
        write_csv(str(path), ["a"], rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_gets_the_umask_mode(tmp_path, umask, mode):
    # the mode open(path, "w") gives: 0o666 less the umask, also when an
    # existing file is replaced
    path = tmp_path / "t.csv"
    old = os.umask(umask)
    try:
        for _ in range(2):
            write_csv(str(path), ["a"], ["1"])
            assert stat.S_IMODE(os.stat(path).st_mode) == mode
    finally:
        os.umask(old)
