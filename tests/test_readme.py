"""README's library sketch runs against the package as documented."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    sketches = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(sketches) == 1
    exec(compile(sketches[0], str(README), "exec"), {})
