"""The README's ```python blocks run as doctests, and the public names resolve.

``python -m doctest README.md`` reads each closing fence as expected
output, so the blocks are cut out first and each is run on its own.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for n, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md[{n}]", str(README), 0))
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_public_names_resolve():
    import p1bundles

    assert len(set(p1bundles.__all__)) == len(p1bundles.__all__)
    for name in p1bundles.__all__:
        assert getattr(p1bundles, name, None) is not None, name
    namespace = {}
    exec("from p1bundles import *", namespace)
    assert set(p1bundles.__all__) <= set(namespace)
