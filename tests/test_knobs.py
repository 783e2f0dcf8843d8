"""The settable surface stays small: CLI options are counted, and the package
reads no environment variable, so no tuning knob slips in unannounced."""

import argparse
from pathlib import Path

from lowprec import cli

SRC = Path(cli.__file__).resolve().parent
MAX_OPTIONS = 31


def test_the_subcommands_declare_at_most_31_option_flags():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [(name, a.option_strings[0])
             for name, p in subs.choices.items() for a in p._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)]
    assert not [f for f in flags if f[1] == "--config"], flags
    assert len(flags) <= MAX_OPTIONS, flags


def test_the_package_reads_no_environment_variable():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name
