"""The README's Python quickstart runs and prints what its comments state."""
import contextlib
import io
import math
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

#: What each print of the quickstart states in its trailing comment, in
#: order; None marks the measured slope, whose comment describes it.
STATED = ["PowerDecay", "8.0 4503599627370484.5", "True", "True", "SobolevW1p", "-7.0", None]


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _same(stated, printed):
    expected, got = stated.split(), printed.split()
    assert len(got) == len(expected), (stated, printed)
    for want, have in zip(expected, got):
        try:
            number = float(want)
        except ValueError:
            assert have == want
        else:
            assert float(have) == pytest.approx(number, rel=1e-12)


def test_readme_comments_state_the_outputs():
    prints = [line for block in _python_blocks() for line in block.splitlines()
              if line.startswith("print(")]
    assert len(prints) == len(STATED)
    for line, stated in zip(prints, STATED):
        if stated is not None:
            assert line.partition("#")[2].split() == stated.split(), line


def test_readme_examples_print_the_stated_outputs():
    blocks = _python_blocks()
    assert len(blocks) == 3
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # later blocks reuse names of earlier ones
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(STATED)
    for line, stated in zip(lines, STATED):
        if stated is not None:
            _same(stated, line)
    slope = float(lines[-1])
    assert math.isfinite(slope) and slope < 0.0
