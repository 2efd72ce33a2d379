"""README.md runs as written.

Every `infercost ...` line of the README's bash blocks (continuation lines
joined) runs through `cli.main`, and every python block runs with `exec`, in
one temporary directory that links `paper-data/`. The commands run first,
because `fit` writes the `prefill.json` and `decode.json` that the serving
example loads. A renamed export, flag or subcommand in the code then fails
here instead of going stale in the docs.

Each command's stdout is kept. Every number quoted in the text of a
"Sessions" subsection must be printed by one of that subsection's commands,
or appear in its command lines, to the precision quoted: a README number that
no command prints fails here.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from infercost.cli import PAPER_DATA_ENV, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)
BLOCKS = BLOCK.findall(TEXT)
# "### title" -> its text, for every subsection of "## Sessions"
SESSIONS = dict(re.findall(
    r"^### (.+?)\n(.*?)(?=^### |\Z)",
    re.search(r"^## Sessions\n(.*?)^## ", TEXT, re.MULTILINE | re.DOTALL).group(1),
    re.MULTILINE | re.DOTALL))
# A number the text quotes: not part of a name like llama2-7b or A800.
QUOTED = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?!\.?\w)")
PRINTED = re.compile(r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _commands(script: str) -> list[str]:
    lines = re.sub(r"\\\n\s*", "", script).splitlines()
    return [line.strip() for line in lines if line.strip().startswith("infercost ")]


COMMANDS = [cmd for lang, body in BLOCKS if lang == "bash" for cmd in _commands(body)]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_has_examples():
    assert COMMANDS and PYTHON_BLOCKS and SESSIONS


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory, paper_data):
    """Run the README's commands in order; the exit code, stdout and stderr of each."""
    workdir = tmp_path_factory.mktemp("readme")
    (workdir / "paper-data").symlink_to(paper_data, target_is_directory=True)
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        mp.delenv(PAPER_DATA_ENV, raising=False)
        for cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(shlex.split(cmd)[1:])
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
            results[cmd] = code, out.getvalue(), err.getvalue()
    return workdir, results


@pytest.mark.parametrize("cmd", COMMANDS)
def test_command_exits_zero(readme_dir, cmd):
    _, results = readme_dir
    code, _, err = results[cmd]
    assert (code, err) == (0, "")


@pytest.mark.parametrize("title", SESSIONS)
def test_session_quotes_only_printed_numbers(readme_dir, title):
    _, results = readme_dir
    body = SESSIONS[title]
    commands = [cmd for lang, code in BLOCK.findall(body) if lang == "bash"
                for cmd in _commands(code)]
    printed = [float(x) for cmd in commands
               for x in PRINTED.findall(f"{cmd}\n{results[cmd][1]}")]
    quoted = QUOTED.findall(BLOCK.sub("", body))
    assert commands and quoted
    # "26.589" is printed if some printed value rounds to it at 3 places.
    unprinted = [q for q in quoted
                 if not any(round(v, len(q.partition(".")[2])) == float(q) for v in printed)]
    assert unprinted == []


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(readme_dir, monkeypatch, capsys, index):
    workdir, _ = readme_dir
    monkeypatch.chdir(workdir)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out
