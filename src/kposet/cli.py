"""Command-line front end.

Commands: estimate | quotient | conditions | dilworth | diagonal | bb
| cardre | interact. Tabular output is RFC-4180 CSV with '#'-prefixed
header lines carrying the full run configuration (and estimate's summary);
structured witnesses are JSON with the configuration embedded. The layers
return data and this module alone writes the reports. The handler of command c is the
module attribute cmd_c; it returns its report and `main` writes it. The
configuration is every parsed option but `--out` and `--program`, with the
values a handler derives from them in their place. Reports are
byte-identical across reruns with the same configuration, and files are
written once, atomically. Exit codes: 0 success, 2 configuration error,
3 desk-scale resource ceiling or input nested past the recursion limit.
The heap is frozen at interpreter exit, not when an in-process `main` returns.

Both parsers read the option table _SUBCOMMANDS. `<command> (--flag value)*`
with full flag names skips argparse: it is imported only to print help and
usage errors, and for the other forms it accepts (abbreviations, --flag=value,
a flag given twice, a value starting with '-').
"""

from __future__ import annotations

import atexit
import gc
import io
import json
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from .errors import ConfigError, DomainError, KposetError, ResourceError, _parse_alphabet

# Each handler imports the layers it drives, posets included, so a command
# loads only those; hence the copy of enumerable.INTERACTION_MODES (a test
# keeps the two equal).
_INTERACTION_MODES = ("cap", "minus", "setminus")

__all__ = ["main"]
# Files are closed (`with`) and --out written before main returns: leave cyclic garbage to the OS
atexit.register(gc.freeze)


def _config(args, **derived) -> dict:
    """The configuration a report records: every parsed option but --out
    and --program, with the `derived` values in their place."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "program")}
    config.update(derived)
    return config


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file beside path; an OSError (a missing folder,
    path a directory) becomes a ConfigError and leaves no temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kposet-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write_atomic(out, text)
    else:
        # UTF-8 bytes as in an --out file, whatever the locale's encoding
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _split_pair(pair: str):
    from .posets import parse_poset_spec

    parts = pair.split("/")
    if len(parts) != 2:
        raise ConfigError(f"--pair wants weak-spec/strong-spec, got {pair!r}")
    return parse_poset_spec(parts[0]), parse_poset_spec(parts[1])


def _csv_report(lines: dict, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A '# key: json' line per entry of `lines` (the configuration first),
    then the CSV header and rows; a None cell is written empty."""
    import csv  # here, so that the commands that write JSON do not load it

    buf = io.StringIO()
    for key, value in lines.items():
        buf.write(f"# {key}: {json.dumps(value, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_report(config: dict, payload: dict) -> str:
    return json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------- commands


def cmd_estimate(args) -> str:
    from . import complexity
    from .posets import parse_poset_spec

    p = parse_poset_spec(args.poset)
    b = complexity.Budget(args.max_len, args.fuel, args.t_budget, args.window)
    summary, rows = complexity.hierarchy_report(p, args.ranks, b)
    return _csv_report({"config": _config(args), "summary": summary},
                       complexity.REPORT_COLUMNS, rows)


def cmd_quotient(args) -> str:
    from . import automata

    sigma = tuple(_parse_alphabet(args.alphabet))
    words = args.m_words.split(",")
    try:  # parsing, compiling and rendering recurse once per nesting level
        ast = automata.parse_regex(args.regex, sigma)
        if ast is None:
            raise ConfigError(f"not a well-formed expression: {args.regex!r}")
        lang = automata.to_canonical_dfa(ast, sigma)
        for w in words:
            if w.strip(args.alphabet):  # "" exactly when every symbol is in the alphabet
                raise ConfigError(f"quotient word {w!r} is not over {args.alphabet!r}")
        points = [(t, automata.canonical_regex(d)) for t, d in automata.quotient_trace(lang, words)]
    except RecursionError:
        raise ResourceError(f"expression of {len(args.regex)} characters nests too deeply"
                            " to evaluate") from None
    ends = [t for t, _ in points[1:]] + [len(words)]
    rows = [[t, text] for (start, text), end in zip(points, ends) for t in range(start, end)]
    rows.append(["final", rows[-1][1]])
    return _csv_report({"config": _config(args, m_words=words)}, ["t", "quotient"], rows)


def cmd_conditions(args) -> str:
    from . import conditions

    weak_p, strong_p = _split_pair(args.pair)
    pair, elems = conditions.order_pair_fragment(weak_p, strong_p, args.fragment)
    if args.condition == "star":
        found = conditions.check_star(pair, args.k)
    else:
        found = conditions.check_dagger(pair, args.k)
    witness = None
    if found is not None:
        witness = [strong_p.format_elem(elems[i]) for i in found]
    return _json_report(_config(args), {"witness": witness})


def cmd_dilworth(args) -> str:
    from . import analysis

    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.file!r}: {exc}") from exc
    names, fp = analysis.read_order(text)
    antichain, cover = analysis.dilworth(fp)
    payload = {
        "antichain": [names[i] for i in antichain],
        "antichain_size": len(antichain),
        "chains": [[names[i] for i in chain] for chain in cover],
        "cover_size": len(cover),
        "dilworth_equal": len(antichain) == len(cover),
    }
    return _json_report(_config(args, file=os.path.basename(args.file)), payload)


def cmd_diagonal(args) -> str:
    from . import complexity, diagonal

    weak_p, strong_p = _split_pair(args.pair)
    # diagonal_hard reads no length field (it runs the words shorter than
    # alpha(i)); the ceiling only makes the Budget valid
    b = complexity.Budget(complexity.MAX_PROG_LEN, args.fuel, args.t_budget, args.window)
    f_elem, g_elem, audit = diagonal.diagonal_hard(
        weak_p, strong_p,
        lambda i, size: diagonal.chain_antichain_family(weak_p, strong_p, size),
        lambda j: j + 1, args.i, b,
    )
    payload = {
        "f": strong_p.format_elem(f_elem),
        "g": strong_p.format_elem(g_elem),
        "audit": audit,
    }
    return _json_report(_config(args), payload)


def cmd_bb(args) -> str:
    from .busy_beaver import busy_beaver_row

    # the largest n first: its call checks both sizes before any other walk
    top = busy_beaver_row(args.states, args.t_max)
    rows = []
    for n in range(args.states + 1):
        row = top if n == args.states else busy_beaver_row(n, args.t_max)
        rows.extend([n, t, row[t]] for t in range(args.t_max + 1))
    return _csv_report({"config": _config(args)}, ["n", "t", "bb"], rows)


def _program_index(args) -> int:
    if args.program is None:
        return args.index
    if args.program.strip("01"):  # "" exactly when every symbol is 0 or 1
        raise ConfigError("--program wants a binary word")
    from .codec import b_index

    return b_index(args.program)


def cmd_cardre(args) -> str:
    from .enumerable import card_re_row

    n = _program_index(args)
    row = card_re_row(n, args.t_max)
    return _csv_report({"config": _config(args, index=n)}, ["t", "count"], enumerate(row))


def cmd_interact(args) -> str:
    from . import enumerable

    n = _program_index(args)
    try:
        xs = tuple(sorted({int(v) for v in args.x.split(",") if v != ""}))
    except ValueError as exc:
        raise ConfigError(f"--x wants a comma-separated set of naturals: {exc}") from exc
    trace, report = enumerable.set_interaction_limit(n, args.mode, xs, args.t_budget, args.window)
    payload = {"trace": [[t, list(v)] for t, v in trace], "limit": list(report.current),
               "status": report.status}
    return _json_report(_config(args, index=n, x=list(xs)), payload)


# -------------------------------------------------------------- arg parsing

# The option table both parsers read. Per option, flag: (type, default,
# required, choices, help); `required` is True, False or _ONE_OF (one of them).
_ONE_OF = "one of"
_COMMON = {
    "--out": (str, None, False, None, "output file (atomic write); stdout otherwise"),
    "--threads": (int, 1, False, None,
                  "recorded in the report configuration; enumeration is serial"),
}
_BUDGET = {
    "--fuel": (int, 4096, False, None, "machine steps per run"),
    "--t-budget": (int, 4096, False, None, "approximation clock budget"),
    "--window": (int, 8, False, None, "stability window"),
}
_PROGRAM = {
    "--index": (int, None, _ONE_OF, None, None),
    "--program": (str, None, _ONE_OF, None, "program bits (alternative to --index)"),
}
# name: (help, options), in the order of the help
_SUBCOMMANDS = {
    "estimate": ("build the three-table CSV report", {
        "--poset": (str, None, True, None, "poset spec, e.g. nat or prefix:ab"),
        "--ranks": (int, 32, False, None, "report rows 0..ranks-1"),
        "--max-len": (int, 14, False, None, "max program bits"), **_COMMON, **_BUDGET}),
    "quotient": ("stabilization trace of a language quotient", {
        "--regex": (str, None, True, None, None),
        "--alphabet": (str, None, True, None, None),
        "--m-words": (str, None, True, None, "comma-separated quotient words"), **_COMMON}),
    "conditions": ("chain/antichain condition witnesses", {
        "--pair": (str, None, True, None, "weak-spec/strong-spec"),
        "--k": (int, None, True, None, None),
        "--condition": (str, "star", False, ("star", "dagger"), None),
        "--fragment": (int, 15, False, None, "carrier rank bound"), **_COMMON}),
    "dilworth": ("max antichain and min chain cover", {
        "--file": (str, None, True, None, "finite order JSON"), **_COMMON}),
    "diagonal": ("diagonal hardness audit", {
        "--pair": (str, None, True, None, "weak-spec/strong-spec"),
        "--i": (int, None, True, None, "alpha(i) = i + 1"), **_COMMON, **_BUDGET}),
    "bb": ("busy beaver table", {
        "--states": (int, None, True, None, "n (machines have n+1 states)"),
        "--t-max": (int, None, True, None, None), **_COMMON}),
    "cardre": ("enumerable-set counting table", {
        **_PROGRAM, "--t-max": (int, None, True, None, None), **_COMMON}),
    "interact": ("finite-set interaction trace", {
        "--mode": (str, None, True, _INTERACTION_MODES, None),
        **_PROGRAM,
        "--x": (str, None, True, None, "comma-separated finite set"),
        "--t-budget": (int, 256, False, None, None),
        "--window": (int, 8, False, None, None), **_COMMON}),
}


def _parse_strict(argv: list[str]) -> Optional[SimpleNamespace]:
    """What argparse makes of `<command> (--flag value)*` when every flag is
    a full name given at most once, no value starts with '-', and the types,
    choices and required options hold; None for any other argv."""
    options = _SUBCOMMANDS[argv[0]][1] if argv and argv[0] in _SUBCOMMANDS else {}
    given = dict(zip(argv[1::2], argv[2::2]))  # flag: value
    one_of = [flag for flag, option in options.items() if option[2] is _ONE_OF]
    if (not options or len(given) < len(argv) // 2  # a flag given twice, or a flag with no value
            or not given.keys() <= options.keys() or any(v.startswith("-") for v in given.values())
            or one_of and sum(flag in given for flag in one_of) != 1):
        return None
    parsed = {"command": argv[0]}
    for flag, (kind, default, required, choices, _) in options.items():
        if flag not in given and required is True:
            return None
        try:
            value = kind(given[flag]) if flag in given else default
        except ValueError:
            return None
        if flag in given and choices is not None and value not in choices:
            return None
        parsed[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**parsed)


def build_parser():
    """The argparse parser, built from _SUBCOMMANDS: it prints help and usage
    errors, and parses the argv that _parse_strict leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kposet", description="desk-scale workbench for max/min program-size "
        "complexities over computable partially ordered sets")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (command_help, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=command_help)
        group = None
        for flag, (kind, default, required, choices, help_text) in options.items():
            target = sub
            if required is _ONE_OF:
                group = group or sub.add_mutually_exclusive_group(required=True)
                target, required = group, False
            target.add_argument(flag, type=kind, default=default, required=required,
                                choices=choices, help=help_text)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # UTF-8 whatever the locale: Python decoded the argument bytes with
        # the locale's codec, so re-encode them and decode as UTF-8
        argv = [os.fsencode(a).decode("utf-8", "surrogateescape") for a in sys.argv[1:]]
    args = _parse_strict(argv) or build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]  # read now, so a wrapped cmd_* is the one run
    try:
        _emit(handler(args), args.out)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"kposet: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"kposet: {exc}", file=sys.stderr)
        return 3
    except RecursionError:  # a spec, order file or expression nested past the interpreter's limit
        print(f"kposet: {args.command} input nests too deeply to evaluate", file=sys.stderr)
        return 3
    except KposetError as exc:  # pragma: no cover - internal failures
        print(f"kposet: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
