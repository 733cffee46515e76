import pytest


def _open_half_then_fail(file, mode="r", **kwargs):
    fh = open(file, mode, **kwargs)
    write = fh.write

    def write_half_then_fail(data):
        write(data[: len(data) // 2])
        raise OSError("disk full")

    fh.write = write_half_then_fail
    return fh


@pytest.fixture
def fail_writes_halfway(monkeypatch):
    """Call the returned function to make every file ``whiskerlab.artifacts``
    opens write half of its first chunk and then raise OSError("disk full");
    ``monkeypatch.undo()`` disarms it."""
    from whiskerlab import artifacts

    def arm():
        monkeypatch.setattr(artifacts, "open", _open_half_then_fail, raising=False)

    return arm
