"""Command-line front end.

Subcommands: match, apply, pct, run, hexca, export, preset.  Every subcommand
accepts --out (write the resulting graph) and --report (write a text report;
without it the report goes to stdout).

Exit codes: 0 success, 1 usage, 2 parse or validation failure, 3 gluing
failure, 4 incoherent match set.
"""

from __future__ import annotations

import argparse
import codecs
import os
import re
import sys
from functools import cache

from .algebras import render_value
from .attrgraphs import AttributedGraph
from .fileio import ValidationError, export_dot, load_system, save_graph, save_system
from .hexgrid import HexGridSpec, hex_system
from .presets import fibonacci_system
from .rewriting import GluingError, IncoherentSetError, Match, SystemSpec, apply_direct
from .runner import StepReport, apply_parallel_step, cmd_hexca, cmd_run, joint_step, rule_matches

__all__ = ["main", "entry", "UsageError",
           "EXIT_OK", "EXIT_USAGE", "EXIT_INVALID", "EXIT_GLUING", "EXIT_INCOHERENT"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_GLUING = 3
EXIT_INCOHERENT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems as exceptions, not SystemExit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@cache
def _build_parser() -> _Parser:
    """The parser of every `main` call, built once: its objects form
    reference cycles, so a new one per call would be left to the cyclic
    collector."""
    parser = _Parser(prog="weakspan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--out", metavar="PATH", help="write the resulting graph here")
        p.add_argument("--report", metavar="PATH",
                       help="write the text report here instead of stdout")

    def inputs(p):
        p.add_argument("--rules", required=True, metavar="FILE",
                       help="system file providing the rules")
        p.add_argument("--host", required=True, metavar="FILE",
                       help="system or graph file providing the host graph")

    p = sub.add_parser("match", help="list the matches of every rule in the host")
    inputs(p)
    common(p)

    p = sub.add_parser("apply", help="apply one rule at one match")
    inputs(p)
    p.add_argument("--rule", required=True, metavar="NAME")
    p.add_argument("--match", required=True, type=int, metavar="INDEX",
                   help="index within that rule's match list")
    common(p)

    p = sub.add_parser("pct", help="apply a set of matches in one parallel step")
    inputs(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--matches", metavar="LIST",
                       help="comma-separated global match indices (see `match`)")
    group.add_argument("--all", action="store_true",
                       help="use every match, skipping ones that fail to glue (default)")
    common(p)

    p = sub.add_parser("run", help="iterate whole-step rewriting")
    inputs(p)
    p.add_argument("--steps", required=True, type=int, metavar="N")
    p.add_argument("--mode", choices=("pct", "seq"), default="pct")
    common(p)

    p = sub.add_parser("hexca", help="grow the hexagonal automaton")
    p.add_argument("--radius", required=True, type=int, metavar="R")
    p.add_argument("--generations", required=True, type=int, metavar="N")
    p.add_argument("--seed", action="append", default=None, metavar="Q,R",
                   help="live starting cell; repeatable; default 0,0")
    common(p)

    p = sub.add_parser("export", help="render a graph file as GraphViz DOT")
    p.add_argument("--host", required=True, metavar="FILE")
    p.add_argument("--dot", required=True, metavar="PATH")
    common(p)

    p = sub.add_parser("preset", help="write a bundled example system file")
    p.add_argument("name", choices=("fib", "hex"))
    p.add_argument("--radius", type=int, default=5, metavar="R",
                   help="disk radius for the hex preset")
    p.add_argument("--seed", action="append", default=None, metavar="Q,R")
    common(p)

    return parser


def _join_seed_values(argv: list[str]) -> list[str]:
    """``--seed Q,R`` as one ``--seed=Q,R`` token: argparse reads a value
    that starts with ``-`` and is not a plain number as an option."""
    joined: list[str] = []
    for token in argv:
        if joined[-1:] == ["--seed"] and re.fullmatch(r"-?\d+,-?\d+", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _print(text: str) -> None:
    """Write ``text`` and a newline to stdout in UTF-8, as files are written,
    whatever the locale: a stream with another encoding is written to
    through its byte buffer, under its own error handler."""
    stream = sys.stdout
    encoding = getattr(stream, "encoding", None)
    if encoding is None or codecs.lookup(encoding).name == "utf-8":
        stream.write(text + "\n")
    else:
        stream.flush()
        stream.buffer.write((text + "\n").encode("utf-8", stream.errors))
        stream.buffer.flush()


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    elif text:
        _print(text)


def _load_inputs(args) -> tuple[SystemSpec, AttributedGraph]:
    rules_spec = load_system(args.rules)
    host_spec = rules_spec if args.host == args.rules else load_system(args.host)
    if host_spec.host is None:
        raise ValidationError(f"{args.host}: no host graph found")
    if rules_spec.signature != host_spec.signature:
        raise ValidationError("rule file and host file declare different sorts")
    if not rules_spec.rules:
        raise ValidationError(f"{args.rules}: no rules found")
    system = SystemSpec(signature=rules_spec.signature, algebra=host_spec.algebra,
                        rules=rules_spec.rules, host=host_spec.host)
    return system, host_spec.host


def _parse_seeds(raw: list[str] | None) -> tuple[tuple[int, int], ...]:
    if not raw:
        return ((0, 0),)
    seeds = []
    for item in raw:
        try:
            q, r = item.split(",")
            seeds.append((int(q), int(r)))
        except ValueError:
            raise UsageError(f"bad --seed {item!r}: expected Q,R integers")
    return tuple(seeds)


def _describe_match(global_idx: int, local_idx: int, match: Match) -> str:
    sigma = match.m.sigma
    nodes = ", ".join(f"{k}->{sigma.node_map[k]}" for k in sorted(sigma.node_map))
    line = f"[{global_idx}] {match.rule.name}#{local_idx}: {nodes}"
    if match.alpha.assignment:
        binds = ", ".join(f"{name}={render_value(val)}"
                          for name, val in sorted(match.alpha.assignment.items()))
        line += f" where {binds}"
    return line


def _cmd_match(args) -> int:
    system, host = _load_inputs(args)
    listing = [(local, match) for matches in rule_matches(system, host)
               for local, match in enumerate(matches)]
    lines = [f"{len(listing)} matches"]
    lines += [_describe_match(g, local, match)
              for g, (local, match) in enumerate(listing)]
    _emit("\n".join(lines), args.report)
    if args.out:
        save_graph(host, args.out)
    return EXIT_OK


def _cmd_apply(args) -> int:
    system, host = _load_inputs(args)
    # argv is decoded by the locale and the file as UTF-8, so the name is
    # read as UTF-8 from its OS bytes; a name passed to `main` in process
    # that no bytes gave is already text
    try:
        name = os.fsencode(args.rule).decode("utf-8")
    except UnicodeEncodeError:
        name = args.rule
    except UnicodeDecodeError:
        raise ValidationError(f"--rule {args.rule!r} is not UTF-8") from None
    names = [rule.name for rule in system.rules]
    if name not in names:
        raise ValidationError(f"no rule named {name!r}")
    found = rule_matches(system, host)
    position = names.index(name)
    matches = found[position]
    if not 0 <= args.match < len(matches):
        raise ValidationError(
            f"rule {name!r} has {len(matches)} matches; index {args.match} is out of range")
    gamma = apply_direct(matches[args.match])
    offset = sum(len(earlier) for earlier in found[:position])
    step = StepReport(index=0, mode="sequential")
    result = joint_step([gamma], step, [offset + args.match])
    report = [
        f"applied {name}#{args.match}",
        f"context: {step.dprime_elements} elements",
        f"result: {step.hprime_elements} elements",
    ]
    _emit("\n".join(report), args.report)
    if args.out:
        save_graph(result, args.out)
    return EXIT_OK


def _cmd_pct(args) -> int:
    system, host = _load_inputs(args)
    if args.matches is None:
        result, report = apply_parallel_step(system, host, 0)
    else:
        try:
            indices = [int(piece) for piece in args.matches.split(",")]
        except ValueError:
            raise UsageError(f"bad --matches {args.matches!r}: expected comma-separated integers")
        found = rule_matches(system, host)
        matches = [match for rule_found in found for match in rule_found]
        for pos, idx in enumerate(indices):
            if not 0 <= idx < len(matches):
                raise ValidationError(
                    f"match index {idx} out of range: host has {len(matches)} matches")
            if idx in indices[:pos]:
                raise ValidationError(f"match index {idx} is repeated in --matches")
        gammas = [apply_direct(matches[idx]) for idx in indices]
        report = StepReport(index=0, mode="pct",
                            matches_per_rule={rule.name: len(rule_found)
                                              for rule, rule_found in zip(system.rules, found)})
        result = joint_step(gammas, report, indices)
    _emit(report.describe() if report.matched else "no matches: nothing to apply", args.report)
    if args.out:
        save_graph(result, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.steps < 0:
        raise UsageError("--steps must be nonnegative")
    system, _ = _load_inputs(args)
    mode = "pct" if args.mode == "pct" else "sequential"
    run = cmd_run(system, args.steps, mode)
    _emit(run.report_text(), args.report)
    if args.out:
        save_graph(run.final, args.out)
    _print(f"{len(run.steps)} steps; final graph has {run.final.graph.element_count()} elements")
    return EXIT_OK


def _cmd_hexca(args) -> int:
    grid = HexGridSpec(args.radius, _parse_seeds(args.seed))
    result = cmd_hexca(grid, args.generations)
    lines = [f"generation {g}: {n} live"
             for g, n in enumerate(result.live_counts)]
    lines += [step.describe() for step in result.steps]
    _emit("\n".join(lines), args.report)
    if args.out:
        save_graph(result.graphs[-1], args.out)
    _print(f"live counts: {result.live_counts}")
    return EXIT_OK


def _cmd_export(args) -> int:
    spec = load_system(args.host)
    if spec.host is None:
        raise ValidationError(f"{args.host}: no host graph found")
    export_dot(spec.host, args.dot)
    if args.out:
        save_graph(spec.host, args.out)
    _emit(f"wrote {args.dot}", args.report)
    return EXIT_OK


def _cmd_preset(args) -> int:
    if not args.out:
        raise UsageError("preset requires --out PATH")
    if args.name == "fib":
        system = fibonacci_system()
    else:
        system = hex_system(HexGridSpec(args.radius, _parse_seeds(args.seed)))
    save_system(system, args.out)
    _emit(f"wrote {args.out}", args.report)
    return EXIT_OK


_HANDLERS = {
    "match": _cmd_match,
    "apply": _cmd_apply,
    "pct": _cmd_pct,
    "run": _cmd_run,
    "hexca": _cmd_hexca,
    "export": _cmd_export,
    "preset": _cmd_preset,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_seed_values(sys.argv[1:] if argv is None else argv))
        if args.command is None:
            raise UsageError("a command is required; try --help")
        return _HANDLERS[args.command](args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except IncoherentSetError as err:
        print(f"incoherent match set: {err}", file=sys.stderr)
        return EXIT_INCOHERENT
    except GluingError as err:
        print(f"gluing failure: {err}", file=sys.stderr)
        return EXIT_GLUING
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        print(f"cannot open file: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
