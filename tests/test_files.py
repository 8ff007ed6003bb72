"""The package's one file writer: whole, or not at all."""

import pytest

from carbonrag._files import write_file
from carbonrag.errors import FormatError


class TestWriteFile:
    def test_text_that_cannot_be_encoded_leaves_the_old_file(self, tmp_path):
        """A lone surrogate fails mid-write; the target keeps its bytes and
        the temporary file is removed."""
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes\n")

        def write(fh):
            fh.write("first part, flushed to the temporary file\n" * 1000)
            fh.write("x\ud800")

        with pytest.raises(FormatError) as err:
            write_file(path, "report", write)
        assert err.value.stage == "save"
        assert str(err.value).startswith(f"cannot write report {path}: 'utf-8' codec can't encode")
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_text_that_cannot_be_encoded_creates_no_file(self, tmp_path):
        path = tmp_path / "new.json"
        with pytest.raises(FormatError, match="surrogates not allowed"):
            write_file(path, "catalog", lambda fh: fh.write("\udcff"))
        assert list(tmp_path.iterdir()) == []
