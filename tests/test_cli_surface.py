"""The command-line surface, pinned option by option.

``tests/golden/cli/surface.json`` was generated at commit 18ddc11 (the
parent of the CLI-skeleton PR, when the nine mains still hand-rolled
their parsers) by the same capture this test runs: every ``*_main`` is
called with ``ArgumentParser.parse_args`` patched to hand the parser
over instead of parsing, and each parser and sub-parser is dumped per
action.  Equality means no option string, default, choice, metavar or
help text was dropped or changed -- and, unlike ``--help`` output, the
dump does not depend on the Python version's help formatter.

Regenerate only for an intended surface change:
``PYTHONPATH=src python tests/test_cli_surface.py``.
"""

from __future__ import annotations

import argparse
import json
import os
from unittest import mock

from repro.toolchain import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli",
                      "surface.json")

#: (main, argv prefix that reaches the parser)
ENTRY_POINTS = [
    ("xmtcc_main", []), ("xmtsim_main", []), ("xmtc_lint_main", []),
    ("xmtc_fuzz_main", []), ("xmt_prof_main", []),
    ("xmt_compare_main", []), ("xmt_campaign_main", []),
    ("xmt_top_main", []), ("xmt_explain_main", []),
]


class _Captured(Exception):
    def __init__(self, parser):
        self.parser = parser


def _capture(main, argv) -> argparse.ArgumentParser:
    def hand_over(self, args=None, namespace=None):
        raise _Captured(self)

    with mock.patch.object(argparse.ArgumentParser, "parse_args", hand_over):
        try:
            main(argv)
        except _Captured as caught:
            return caught.parser
    raise AssertionError(f"{main.__name__} never parsed its arguments")


def _plain(value):
    """JSON-safe form of a default/choices/metavar value."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _dump(parser: argparse.ArgumentParser) -> dict:
    # argparse's two default groups are left out: their titles changed
    # between Python versions ("optional arguments" -> "options")
    named = [g for g in parser._action_groups
             if g not in (parser._positionals, parser._optionals)]
    group_of = {id(action): group.title
                for group in named for action in group._group_actions}
    actions, subcommands = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in action._choices_actions}
            subcommands = {
                name: dict(_dump(sub), help=helps.get(name))
                for name, sub in action.choices.items()}
            continue
        actions.append({
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "nargs": action.nargs,
            "default": _plain(action.default),
            "choices": (sorted(_plain(list(action.choices)), key=repr)
                        if action.choices is not None else None),
            "required": action.required,
            "metavar": _plain(action.metavar),
            "help": action.help,
            "group": group_of.get(id(action)),
        })
    # positionals keep their order (it is their meaning); the order of
    # optionals only lays out --help, so they are sorted by name
    actions.sort(key=lambda a: a["option_strings"][:1])
    groups = [{"title": g.title, "description": g.description}
              for g in named]
    return {"prog": parser.prog, "description": parser.description,
            "groups": groups, "actions": actions,
            "subcommands": subcommands}


def build_surface() -> dict:
    surface = {}
    for name, argv in ENTRY_POINTS:
        dumped = _dump(_capture(getattr(cli, name), argv))
        surface[dumped["prog"]] = dumped
    return surface


def render(surface: dict) -> str:
    return json.dumps(surface, indent=1, sort_keys=True) + "\n"


def test_surface_matches_golden():
    with open(GOLDEN) as fh:
        golden = fh.read()
    assert render(build_surface()) == golden


def test_golden_covers_all_nine_console_scripts():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    progs = {p.split()[0] for p in golden}
    assert progs == {"xmtcc", "xmtsim", "xmtc-lint", "xmtc-fuzz", "xmt-prof",
                     "xmt-compare", "xmt-campaign", "xmt-top", "xmt-explain"}
    # every option string of every parser, sub-parsers included
    def options(node):
        found = [s for a in node["actions"] for s in a["option_strings"]]
        for sub in node["subcommands"].values():
            found += options(sub)
        return found
    assert sum(len(options(node)) for node in golden.values()) == 124


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        fh.write(render(build_surface()))
    print(f"wrote {GOLDEN}")
