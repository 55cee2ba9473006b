"""The README's library example runs as written."""

import re
from pathlib import Path

from invsg.pbij import PartialBijection

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    I2, S = ns["I2"], ns["S"]
    join = ns["sup_finite"](S, [ns["a"], ns["b"]])
    assert I2.rep[join] == PartialBijection.on_set(2, [0, 1])
    assert ns["report"].counterexample["upper_bounds"] == ["1", "omega"]
