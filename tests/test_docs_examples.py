"""The documentation's Python code blocks, executed.

Every fenced block whose info string is exactly ``python`` in
``README.md`` and ``docs/*.md`` is extracted and run — blocks within
one file share a namespace and run in order, matching how a reader
would follow the page top to bottom.  A block that must not run (a
fragment, pseudo-code) opts out with the info string ``python skip``.

This is what the README's "the examples cannot rot" claim cashes out
to: renaming an API without updating the docs fails this test.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, NamedTuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))],
    key=lambda path: path.name,
)

FENCE = re.compile(r"^```(.*)$")


class CodeBlock(NamedTuple):
    path: Path
    line: int  # 1-based line of the block's first code line
    source: str


def extract_python_blocks(path: Path) -> List[CodeBlock]:
    blocks: List[CodeBlock] = []
    info = None
    body: List[str] = []
    start = 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = FENCE.match(line)
        if match is None:
            if info is not None:
                body.append(line)
            continue
        if info is None:  # opening fence
            info = match.group(1).strip()
            body = []
            start = number + 1
        else:  # closing fence
            if info == "python":
                blocks.append(CodeBlock(path, start, "\n".join(body)))
            info = None
    assert info is None, f"{path}: unclosed code fence"
    return blocks


def test_every_doc_page_is_scanned():
    names = {path.name for path in DOC_FILES}
    assert "README.md" in names
    # The docs index in the README promises these pages exist.
    for page in (
        "architecture.md",
        "caching.md",
        "formal_model.md",
        "lint.md",
        "observability.md",
        "server.md",
        "sql_reference.md",
        "vectorized.md",
        "xra_reference.md",
    ):
        assert page in names, f"docs/{page} missing"


def test_the_docs_contain_runnable_examples():
    total = sum(len(extract_python_blocks(path)) for path in DOC_FILES)
    assert total >= 8, f"only {total} runnable doc blocks found"


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[path.name for path in DOC_FILES]
)
def test_doc_code_blocks_execute(path: Path):
    blocks = extract_python_blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no python code blocks")
    namespace: dict = {"__name__": f"docs_example_{path.stem}"}
    for block in blocks:
        # Pad with blank lines so tracebacks point at the real markdown
        # line number inside the source file.
        padded = "\n" * (block.line - 1) + block.source
        code = compile(padded, str(path.relative_to(REPO_ROOT)), "exec")
        try:
            exec(code, namespace)  # noqa: S102 - the docs are trusted input
        except Exception as error:  # pragma: no cover - failure reporting
            raise AssertionError(
                f"{path.relative_to(REPO_ROOT)} block at line {block.line} "
                f"failed: {type(error).__name__}: {error}"
            ) from error
