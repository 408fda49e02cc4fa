"""The README's `## Library` examples run as written and give the oracle's
matches, so the documented API cannot drift from the code."""

import random
import re
from pathlib import Path

from parmatch.oracle import naive_all_matches

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run_as_documented(capsys):
    # The examples' pattern, [0, 1, 1, 2, 0], densifies the filter
    # example's ["a", "b", "b", "c", "a"], so one stream over {0, 1, 2}
    # serves all three: per symbol, by chunks, and as raw symbols through
    # the filter.
    step_example, scan_example, filter_example = library_blocks()
    rng = random.Random(4)
    stream = [rng.randrange(3) for _ in range(3000)]
    chunks = [stream[k : k + 700] for k in range(0, len(stream), 700)]
    want = [s + 4 for s in naive_all_matches([0, 1, 1, 2, 0], stream)]
    assert len(want) > 10

    ns = {"stream": stream}
    exec(step_example, ns)
    assert capsys.readouterr().out == "".join(f"match ending at {e}\n" for e in want)

    # The chunk example goes on from a fresh matcher built as above.
    ns = {"stream": []}
    exec(step_example, ns)
    ns["chunks"] = chunks
    exec(scan_example, ns)
    assert ns["ends"] == want

    ns = {"chunks": chunks}
    exec(filter_example, ns)
    assert ns["ends"] == want
    assert ns["filt"].t == len(stream) - 1
