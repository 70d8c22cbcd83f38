"""Snapshot of the command-line surface: the options of each subcommand.

Every option is something a user may pass and every bench op goes
through, so a new one shows up here as a reviewed diff, the way
`test_api.py` snapshots the library.  Each command takes only the options
it reads.  The README's command-line examples are parsed (not run), so a
doc example that uses a retired option fails here.
"""

import shlex
from pathlib import Path

import pytest

from nlcurv.cli import _build_parser, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"

MESH = ["--ambient", "--amp", "--config", "--major", "--mesh", "--minor",
        "--n", "--neck", "--out", "--primitive", "--radius", "--seed",
        "--semi-axes", "--sub", "--workers"]
ENERGY = ["--normalization", "--order", "--p", "--policy", "--s"]
OPTIONS = {
    "eval": MESH + ENERGY + ["--q", "--tangent-point"],
    "probe": MESH + ["--all-vertices", "--alpha", "--grad-bound",
                     "--grid-step", "--hq", "--mode", "--pairs", "--radii",
                     "--vertex"],
    "sobolev": MESH + ["--alpha", "--beta", "--distance", "--field", "--fq"],
    "flow": MESH + ENERGY + ["--grad-tol", "--max-iter", "--smoothing",
                             "--snapshot-every", "--step0"],
    "oracle": ["--R", "--d", "--p", "--s", "quantity"],
}


def _options():
    """Sorted option strings (a positional by its name) per subcommand."""
    _, commands = _build_parser()
    return {name: sorted(opt for a in parser._actions if a.dest != "help"
                         for opt in a.option_strings or [a.dest])
            for name, parser in commands.items()}


def test_cli_options_snapshot():
    assert _options() == {k: sorted(v) for k, v in OPTIONS.items()}


def test_cli_option_count():
    assert sum(map(len, _options().values())) == 96


def test_no_option_prefix_matching():
    # a prefix such as --prim for --primitive is rejected, not expanded
    top, commands = _build_parser()
    assert not top.allow_abbrev
    assert all(not parser.allow_abbrev for parser in commands.values())


def _readme_commands():
    """argv of each `nlcurv ...` line in README's command-line block, with
    continuation lines joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("nlcurv ")]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: " ".join(argv[:4]))
def test_readme_command_parses(argv):
    assert parse_config(argv).command == argv[0]
