"""Every fenced ``python`` block in the docs executes successfully, and
every documented ``repro-radio`` command line parses.

Documentation is part of the public surface; an example that raises is
a release blocker no matter what the unit tests say. This test walks
``README.md`` and ``docs/*.md``, extracts every fenced code block
tagged ``python``, and executes it:

* blocks written in doctest style (``>>>``) run under :mod:`doctest`
  with output comparison;
* plain blocks run under ``exec`` in a fresh namespace.

Both run with the current directory pointed at a temp dir, so examples
may freely write files (``census.sqlite``, queue files, ...). Blocks
tagged ``python no-run`` are skipped (none currently; the escape hatch
exists for examples that would need external services).

Command lines are only parsed (``build_parser().parse_args``), never
run: every line of README.md, docs/*.md and the :mod:`repro.cli`
docstring that starts with ``repro-radio`` (after an optional ``$``
prompt), with ``\\`` continuations joined and any pipe, trailing ``&``
or `` # `` comment cut off.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([ROOT / "README.md", *(ROOT / "docs").glob("*.md")])

_FENCE = re.compile(
    r"^```python[ \t]*(?P<info>[^\n]*)\n(?P<code>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)


def python_blocks():
    """Yield (doc-relative-path, line-number, info-string, code)."""
    out = []
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        for match in _FENCE.finditer(text):
            line = text[: match.start()].count("\n") + 1
            out.append(
                (
                    path.relative_to(ROOT).as_posix(),
                    line,
                    match.group("info").strip(),
                    match.group("code"),
                )
            )
    return out


BLOCKS = python_blocks()


def test_docs_contain_python_examples():
    """The extraction itself is load-bearing: if the fence regex rots,
    every per-block test would silently vanish. Pin the corpus shape."""
    files_with_blocks = {path for path, _, _, _ in BLOCKS}
    assert "README.md" in files_with_blocks
    assert "docs/api.md" in files_with_blocks
    assert "docs/service.md" in files_with_blocks
    assert len(BLOCKS) >= 8


@pytest.mark.parametrize(
    "path,line,info,code",
    BLOCKS,
    ids=[f"{p}:L{ln}" for p, ln, _, _ in BLOCKS],
)
def test_python_block_executes(path, line, info, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples may write files
    if "no-run" in info.split():
        pytest.skip(f"{path}:{line} tagged no-run")
    if ">>>" in code:
        parser = doctest.DocTestParser()
        test = parser.get_doctest(code, {}, f"{path}:L{line}", path, line)
        runner = doctest.DocTestRunner(verbose=False)
        runner.run(test)
        assert runner.failures == 0, (
            f"doctest block at {path}:L{line} failed "
            f"({runner.failures}/{runner.tries} examples)"
        )
    else:
        namespace = {"__name__": f"docexample_{line}"}
        try:
            exec(compile(code, f"{path}:L{line}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"example at {path}:L{line} raised {exc!r}")


def cli_commands():
    """Yield (source, line-number, command) for every documented
    ``repro-radio`` command line."""
    import repro.cli

    sources = [(p.relative_to(ROOT).as_posix(), p.read_text(encoding="utf-8"))
               for p in DOC_FILES]
    sources.append(("repro.cli", repro.cli.__doc__))
    out = []
    for source, text in sources:
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            first, command = i, lines[i].strip()
            while command.endswith("\\") and i + 1 < len(lines):
                i += 1
                command = command[:-1] + " " + lines[i].strip()
            i += 1
            command = command.removeprefix("$ ")
            if command.startswith("repro-radio "):
                out.append((source, first + 1, command))
    return out


COMMANDS = cli_commands()


def test_docs_contain_cli_examples():
    """Pin the corpus shape, as for the python blocks."""
    sources = {source for source, _, _ in COMMANDS}
    assert {"README.md", "docs/distributed.md", "repro.cli"} <= sources
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize(
    "source,line,command",
    COMMANDS,
    ids=[f"{s}:L{ln}" for s, ln, _ in COMMANDS],
)
def test_cli_example_parses(source, line, command):
    from repro.cli import build_parser

    command = command.split(" # ")[0].split(" | ")[0].strip()
    argv = shlex.split(command.removesuffix("&"))[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{source}:L{line}: {command!r} does not parse")
