import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_what_its_comments_say():
    # Each comment in the README's Python example is one line that the
    # example prints, in order.
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    comments = re.findall(r"#\s*(.*)$", example, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().splitlines() == comments
