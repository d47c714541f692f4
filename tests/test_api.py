import re
from pathlib import Path

import specseq


def test_all_names_resolve_once():
    names = specseq.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(specseq, name)] == []
    namespace = {}
    exec("from specseq import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    # the README's first Python block uses only public names; run it as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(block, {"__name__": "readme_quick_start"})
    assert "MetricBundle(message_power=" in capsys.readouterr().out
