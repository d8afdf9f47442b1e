"""Every option the command-line parser registers reaches a command: it
is read in cli.py as ``args.<dest>`` outside ``main``, or ``main`` passes
it into a RunConfig field that cli.py reads as ``cfg.<field>``.  A value
that is only echoed by ``RunConfig.block()`` selects nothing."""

import argparse
import ast
import pathlib

from rbgroups import cli

SOURCE = pathlib.Path(cli.__file__).read_text()


def registered_dests(parser):
    """The dest of every argument of every subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for sp in sub.choices.values() for a in sp._actions
            if not isinstance(a, argparse._HelpAction)}


def _reads(node, name):
    """Attributes read from the variable ``name`` inside ``node``."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == name}


def unread_options(source, dests):
    """The dests that no command reads, directly or through RunConfig."""
    funcs = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
    main = next(f for f in funcs if f.name == "main")
    read = set().union(*(_reads(f, "args") for f in funcs if f is not main))
    fields = set().union(*(_reads(f, "cfg") for f in funcs))
    for call in ast.walk(main):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "RunConfig":
            read |= {d for kw in call.keywords if kw.arg in fields
                     for d in _reads(kw.value, "args")}
    return sorted(set(dests) - read)


def test_unread_options_are_found():
    source = ("def cmd(args, cfg):\n    return args.group, cfg.cap\n\n"
              "def main(argv=None):\n    args = parse(argv)\n"
              "    cfg = RunConfig(cap=args.cap, seed=args.seed)\n"
              "    print(cfg.block(), args.width)\n    return args.func(args, cfg)\n")
    assert unread_options(source, {"group", "cap", "seed", "width"}) == ["seed", "width"]


def test_every_option_reaches_a_command():
    dests = registered_dests(cli.build_parser())
    assert {"group", "cap_order", "out"} <= dests
    assert unread_options(SOURCE, dests) == []
