"""The README CLI reference stays in sync with the actual parsers.

Two directions, plus a ``--help`` smoke test:

* every flag a subcommand parser defines appears in README.md (no
  undocumented flags);
* every ``--flag`` mentioned in the README's CLI-reference section is a
  real flag of at least one subcommand (no stale documentation);
* ``--help`` renders for the top-level parser and every subcommand.
"""

import os
import re

import pytest

from repro.cli import _build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()


def _subparsers():
    parser = _build_parser()
    actions = [action for action in parser._actions
               if hasattr(action, "choices") and isinstance(action.choices, dict)]
    assert actions, "subcommand dispatch disappeared from the CLI parser"
    return actions[0].choices


def _option_strings(subparser):
    return {option
            for action in subparser._actions
            for option in action.option_strings
            if option.startswith("--")}


class TestReadmeMatchesParsers:
    def test_every_subcommand_is_documented(self):
        for name in _subparsers():
            assert f"`{name}" in README or f"`repro {name}" in README, (
                f"subcommand {name!r} is missing from the README CLI reference")

    def test_every_flag_is_documented(self):
        documented = set(re.findall(r"--[a-z][a-z-]*", README))
        for name, subparser in _subparsers().items():
            for option in _option_strings(subparser):
                assert option in documented, (
                    f"flag {option} of subcommand {name!r} is not documented "
                    "in the README CLI reference")

    def test_no_stale_flags_in_the_reference_tables(self):
        # Flags inside the CLI reference section must all exist somewhere.
        section = README.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
        known = set()
        for subparser in _subparsers().values():
            known.update(_option_strings(subparser))
        for flag in set(re.findall(r"`(--[a-z][a-z-]*)", section)):
            assert flag in known, f"README documents unknown flag {flag}"


class TestHelpSmoke:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["search", "--help"],
        ["baseline", "--help"],
        ["sweep", "--help"],
        ["run", "--help"],
        ["list", "--help"],
    ])
    def test_help_renders(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out

    def test_sweep_help_names_the_key_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        for flag in ("--arch", "--workload", "--seeds", "--runs", "--method",
                     "--sweep-dir", "--resume", "--jobs",
                     "--cache", "--cache-backend",
                     "--checkpoint-every", "--reference-interpreter"):
            assert flag in out
