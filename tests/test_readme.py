"""README's examples, run as written: the library quick start prints what
its comments say, and each `$ subcube ...` session prints the output shown
under it, but for the wall_ms column and the lines after a `...`."""

import re
import shlex
from pathlib import Path

from subcube import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def sessions():
    """(argv, stdout lines shown) of each `$ subcube` session, in README order."""
    runs = []
    for block in blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        if lines and lines[0].startswith("$ subcube "):
            runs.append((shlex.split(lines[0])[2:], lines[1:]))
    return runs


def without_wall_ms(lines):
    """CSV lines with their wall_ms column, named in the first line, dropped."""
    if not lines or "wall_ms" not in lines[0].split(","):
        return lines
    col = lines[0].split(",").index("wall_ms")
    return [",".join(f for i, f in enumerate(line.split(",")) if i != col) for line in lines]


def test_quick_start_prints_its_comments(capsys):
    (code,) = blocks("python")
    want = [line.split("# ", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want == ["accept stage2-no-zero", "0"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


def test_cli_sessions_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # the sessions run in order in one directory: the later ones read the
    # instance the first one writes
    monkeypatch.chdir(tmp_path)
    runs = sessions()
    assert [argv[0] for argv, _ in runs] == ["gen-instance", "test", "distance",
                                             "violation", "experiment"]
    for argv, want in runs:
        assert cli.main(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        if "..." in want:
            want = want[:want.index("...")]
            got = got[:len(want)]
        assert without_wall_ms(got) == without_wall_ms(want), argv
