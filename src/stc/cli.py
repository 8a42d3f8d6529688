"""Command-line interface.

One table, `_COMMANDS`, declares every command line: each command's words
and function, and its options with their names, types, defaults and help
lines.  `_parse` reads a command line from it, and `_help` prints it for
`--help`, so no call imports or builds a parser library.  The solve-path
commands reach the library through this module's globals when they run, so
a caller may replace those (tests do).  `oracle` and `gen` import the
oracles and the generator when they run instead: neither module is on the
solve path, so `import stc.cli` does not load them.

Exit codes: 0 = yes, 1 = no, 64 = usage error, 65 = parse error,
66 = semantic error (including oracle caps), 70 = internal error (including
any unexpected exception).
"""

from __future__ import annotations

import gc
import os
import re
import sys
from collections import namedtuple

from . import formats
from .digraph import classify
from .errors import InternalError, ParseError, SemanticError, STCError
from .extension import canonicalize, default_extension
from .reduction import _require_network, _require_tree, preprocess, reduce_network
from .solver import reconstruct_witness, solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SEMANTIC = 66
EXIT_INTERNAL = 70


def _read(path):
    """The text of the file at `path`: its bytes, read in one unbuffered
    read to the end (of a pipe too) and decoded as strict UTF-8.

    No line end is translated here: the parsers end lines at `\\n`, `\\r\\n`
    and `\\r` themselves.  A byte that is no UTF-8 is a `ParseError` that
    names its offset in the file.  Every command reads its inputs here, and
    `--batch` reads each file that its one directory listing pairs, so a
    listed file that cannot be read is that instance's error."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise SemanticError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte offset {exc.start}: not UTF-8 "
                         f"(byte 0x{exc.object[exc.start]:02x})")


def _write(path, text):
    """Write `text` to the file at `path` as UTF-8 bytes, in one buffered
    write: the byte twin of `_read`, so no line end is translated."""
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise SemanticError(f"cannot write {path}: {exc.strerror}")


class UsageError(Exception):
    """A command line that the parser or a command rejects: exit code 64."""


class _HelpShown(Exception):
    """`--help` after the command words `args[0]`: exit code 0."""


def _load_network(path):
    return formats.parse_edgelist(_read(path))


def _load_extension(path, host):
    return formats.parse_extension(_read(path), host)


def _decide(network_path, tree_path, extension_path, keep_tables):
    """Load one instance, reduce it and solve it: the one solve sequence of
    `stc solve`, for a single instance and for each of a batch."""
    n = _load_network(network_path)
    t = _load_network(tree_path)
    ext = _load_extension(extension_path, n) if extension_path else None
    return solve(preprocess(n, t, ext), keep_tables=keep_tables)


def _solve_one(paths):
    """Worker for batch mode; returns (name, verdict-or-error string)."""
    name, network_path, tree_path, extension_path = paths
    try:
        result = _decide(network_path, tree_path, extension_path, keep_tables=False)
        return name, "YES" if result.displayed else "NO"
    except InternalError as exc:
        return name, f"ERROR internal: {exc}"
    except STCError as exc:
        return name, f"ERROR {exc}"
    except Exception as exc:  # one crashing instance must not end the batch
        return name, f"ERROR internal: {type(exc).__name__}: {exc}"


def solve_cmd(network_path, tree_path, extension_path, witness, decision_only,
              batch_dir, jobs):
    """Decide soft display; exits 0 on yes and 1 on no."""
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, not {jobs}")
    if witness and decision_only:
        raise UsageError("--witness needs the tables --decision-only frees")
    if batch_dir:
        if network_path or tree_path or extension_path or witness:
            raise UsageError("--batch excludes per-instance options")
        return _solve_batch(batch_dir, jobs)
    if jobs > 1:
        raise UsageError("--jobs needs --batch")
    if not network_path or not tree_path:
        raise UsageError("need -n and -t (or --batch)")
    result = _decide(network_path, tree_path, extension_path, keep_tables=witness)
    if not result.displayed:
        print("NO")
        return EXIT_NO
    print("YES")
    if witness:
        network, embedding = reconstruct_witness(result)
        print("REDUCED-INSTANCE")
        sys.stdout.write(formats.serialize_edgelist(network))
        sys.stdout.write("".join([f"EMBED {x} {y} : {' '.join(embedding[x, y])}\n"
                                  for (x, y) in sorted(embedding)]))
    return EXIT_YES


def _solve_in_pools(tasks, jobs):
    """`_solve_one` over `tasks` in `jobs` worker processes, in order.

    A worker that dies outright breaks its pool and every result still
    pending in it.  The first instance left without a result then runs alone
    in a fresh process: if that one dies too, the instance gets an internal
    error; the instances after it go on in a fresh pool.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    while len(results) < len(tasks):
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_solve_one, t) for t in tasks[len(results):]]
            try:
                for future in futures:
                    results.append(future.result())
            except BrokenProcessPool:
                pass
        if len(results) < len(tasks):
            task = tasks[len(results)]
            with ProcessPoolExecutor(max_workers=1) as alone:
                try:
                    results.append(alone.submit(_solve_one, task).result())
                except BrokenProcessPool:
                    results.append((task[0], "ERROR internal: worker died"))
    return results


def _solve_batch(batch_dir, jobs):
    try:
        entries = sorted(os.listdir(batch_dir))
    except OSError as exc:
        raise SemanticError(f"cannot read {batch_dir}: {exc.strerror}")
    # Files pair by name within this one listing: a listed file that cannot
    # be read is its instance's error, never a file left out.
    listed = set(entries)
    tasks = []
    for entry in entries:
        if not entry.endswith(".network"):
            continue
        name = entry[:-len(".network")]
        if f"{name}.tree" not in listed:
            continue
        ext = f"{name}.extension"
        tasks.append((name, os.path.join(batch_dir, entry),
                      os.path.join(batch_dir, f"{name}.tree"),
                      os.path.join(batch_dir, ext) if ext in listed else None))
    if not tasks:
        raise SemanticError(f"no NAME.network/NAME.tree pairs in {batch_dir}")
    if jobs > 1:
        results = _solve_in_pools(tasks, jobs)
    else:
        results = [_solve_one(t) for t in tasks]
    failed = False
    for name, verdict in results:
        print(f"{name} {verdict}")
        if verdict.startswith("ERROR"):
            failed = True
    return EXIT_SEMANTIC if failed else EXIT_YES


def reduce_cmd(network_path, extension_path, tree_path, prefix):
    """Run the reduction pipeline and write the reduced network + extension.

    The reduced network has in-degree at most 2 and a fresh degree-1 root;
    its vertices of out-degree 3+ stay, as the solver resolves them."""
    n = _load_network(network_path)
    ext = _load_extension(extension_path, n) if extension_path else None
    t = _load_network(tree_path) if tree_path else None
    _require_network(n)
    if t is not None:
        _require_tree(t)
    ext, trace = reduce_network(n, ext, taxa=None if t is None else t.taxa)
    _write(f"{prefix}.network", formats.serialize_edgelist(ext.host))
    _write(f"{prefix}.extension", formats.serialize_extension(ext))
    for step, before, after in zip(trace.steps, trace.widths, trace.widths[1:]):
        print(f"step {step.kind} {getattr(step, 'vertex', None) or '-'}: "
              f"width {before} -> {after}")
    return EXIT_YES


def extension_validate(network_path, extension_path):
    n = _load_network(network_path)
    _load_extension(extension_path, n)  # raises on violation
    print("valid")
    return EXIT_YES


def extension_width(network_path, extension_path):
    n = _load_network(network_path)
    ext = _load_extension(extension_path, n)
    print(ext.width())
    return EXIT_YES


def extension_canonicalize(network_path, extension_path):
    n = _load_network(network_path)
    ext = canonicalize(_load_extension(extension_path, n))
    sys.stdout.write(formats.serialize_extension(ext))
    return EXIT_YES


def extension_default(network_path):
    n = _load_network(network_path)
    sys.stdout.write(formats.serialize_extension(default_extension(n)))
    return EXIT_YES


def _oracle_inputs(network_path, tree_path, cap, method):
    if cap is not None and method != "subsets":
        raise UsageError(f"--cap bounds --method subsets only, not {method}")
    if cap is not None and cap < 0:
        raise UsageError(f"--cap must be at least 0, not {cap}")
    n = _load_network(network_path)
    t = _load_network(tree_path)
    _require_network(n)
    _require_tree(t)
    return n, t


def oracle_firm(network_path, tree_path, cap, method):
    from .oracle import firm_display, firm_display_switching
    n, t = _oracle_inputs(network_path, tree_path, cap, method)
    if method == "subsets":
        answer = firm_display(n, t, cap=cap)
    else:
        answer = firm_display_switching(n, t)
    print("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


def oracle_soft(network_path, tree_path, cap, method):
    from .oracle import soft_display
    n, t = _oracle_inputs(network_path, tree_path, cap, method)
    answer = soft_display(n, t, method=method, cap=cap)
    print("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


def gen_cmd(leaves, reticulations, polytomy_rate, seed, yes_biased, prefix):
    """Generate a seeded random instance."""
    from .generator import GeneratorParams, generate
    params = GeneratorParams(
        leaves=leaves, reticulations=reticulations,
        polytomy_rate=polytomy_rate, seed=seed,
        target_answer="yes-biased" if yes_biased else "unlabeled")
    inst = generate(params)
    if prefix:
        for suffix, doc in (("network", inst.network_doc),
                            ("tree", inst.tree_doc),
                            ("extension", inst.extension_doc)):
            _write(f"{prefix}.{suffix}", doc)
    else:
        sys.stdout.write(inst.network_doc + inst.tree_doc + inst.extension_doc)
    return EXIT_YES


def import_cmd(fmt, path):
    """Convert an eNewick file to the edge-list format."""
    graph = formats.parse_enewick(_read(path))
    kind = classify(graph)
    sys.stdout.write(formats.serialize_edgelist(graph))
    if not kind:
        raise SemanticError(f"imported graph is not usable: {kind.reason}")
    return EXIT_YES


# -- the command line: one table that the parser and `--help` read ------------

# An option of a command.  `names` spell it, e.g. ("-n", "--network"); a
# name without a leading "-" marks a positional argument instead.  `dest`
# names the command function's parameter.  `type` converts the value, and
# `bool` marks a flag, which takes no value and reads True when given.
_Option = namedtuple("_Option", "names dest type default required choices help",
                     defaults=(str, None, False, None, ""))
# A command, or with `run` None a group of commands, e.g. `stc extension`.
_Command = namedtuple("_Command", "run help options")

_HELP = _Option(("-h", "--help"), None, bool, help="print this help and exit")
_NETWORK = _Option(("-n", "--network"), "network_path", help="network file")
_TREE = _Option(("-t", "--tree"), "tree_path", help="tree file")
_EXTENSION = _Option(("-x", "--extension"), "extension_path", help="extension file")
_NEEDS_NETWORK = _NETWORK._replace(required=True)
_NEEDS_TREE = _TREE._replace(required=True)
_NEEDS_EXTENSION = _EXTENSION._replace(required=True)

# Each command line, keyed by its command words.
_COMMANDS = {
    (): _Command(None, "Decide whether a phylogenetic network softly displays a tree.", ()),
    ("solve",): _Command(solve_cmd, "Decide soft display; exits 0 on yes and 1 on no.", (
        _NETWORK, _TREE, _EXTENSION,
        _Option(("--witness",), "witness", bool, False, help="print an embedding on yes"),
        _Option(("--decision-only",), "decision_only", bool, False,
                help="free tables eagerly, the default without --witness; "
                     "excludes --witness"),
        _Option(("--batch",), "batch_dir",
                help="solve every NAME.network/NAME.tree pair in a directory"),
        _Option(("--jobs",), "jobs", int, 1,
                help="worker processes for --batch (default: 1)"))),
    ("reduce",): _Command(reduce_cmd, "Run the reduction pipeline and write the "
                          "reduced network + extension.", (
        _NEEDS_NETWORK, _EXTENSION, _TREE,
        _Option(("-o", "--output"), "prefix", required=True,
                help="output prefix; writes PREFIX.network and PREFIX.extension"))),
    ("extension",): _Command(None, "Inspect and transform tree extensions.", ()),
    ("extension", "validate"): _Command(
        extension_validate, "Check an extension against its network; prints 'valid'.",
        (_NEEDS_NETWORK, _NEEDS_EXTENSION)),
    ("extension", "width"): _Command(
        extension_width, "Print the width of an extension.",
        (_NEEDS_NETWORK, _NEEDS_EXTENSION)),
    ("extension", "canonicalize"): _Command(
        extension_canonicalize, "Print the canonical form of an extension.",
        (_NEEDS_NETWORK, _NEEDS_EXTENSION)),
    ("extension", "default"): _Command(
        extension_default, "Print the default extension of a network.", (_NEEDS_NETWORK,)),
    ("oracle",): _Command(None, "Brute-force reference answers on small instances.", ()),
    ("oracle", "firm"): _Command(
        oracle_firm, "Decide firm display by brute force; exits 0 on yes and 1 on no.", (
            _NEEDS_NETWORK, _NEEDS_TREE,
            _Option(("--cap",), "cap", int, help="arc-count cap of --method subsets"),
            _Option(("--method",), "method", default="subsets",
                    choices=("subsets", "switching"), help="(default: subsets)"))),
    ("oracle", "soft"): _Command(
        oracle_soft, "Decide soft display by brute force; exits 0 on yes and 1 on no.", (
            _NEEDS_NETWORK, _NEEDS_TREE,
            _Option(("--cap",), "cap", int, help="arc-count cap of --method subsets"),
            _Option(("--method",), "method", default="switching",
                    choices=("subsets", "switching"), help="(default: switching)"))),
    ("gen",): _Command(gen_cmd, "Generate a seeded random instance.", (
        _Option(("--leaves",), "leaves", int, required=True, help="number of taxa"),
        _Option(("--reticulations",), "reticulations", int, 0,
                help="number of reticulations (default: 0)"),
        _Option(("--polytomy",), "polytomy_rate", float, 0.0,
                help="chance that an inner arc contracts into a polytomy (default: 0.0)"),
        _Option(("--seed",), "seed", int, 0, help="random seed (default: 0)"),
        _Option(("--yes-biased",), "yes_biased", bool, False,
                help="skip the leaf relabeling that scrambles the answer"),
        _Option(("-o", "--output"), "prefix", help="write PREFIX.network, "
                "PREFIX.tree and PREFIX.extension instead of printing"))),
    ("import",): _Command(import_cmd, "Convert an eNewick file to the edge-list format.", (
        _Option(("FORMAT",), "fmt", required=True, choices=("enewick",),
                help="input format: enewick"),
        _Option(("FILE",), "path", required=True, help="the file to convert"))),
}
# Each entry's options by name, `-h` and `--help` included.
_NAMES = {words: {name: option for option in (*command.options, _HELP)
                  for name in option.names if name[0] == "-"}
          for words, command in _COMMANDS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option_in(token, names):
    """How `token` reads among the options `names`: None for a value, else
    `(option, name, value)`, where `value` is what `--name=VALUE`, `-xVALUE`
    or `-x=VALUE` attach (None without) and `option` is None for an unknown
    name.  A token that starts with "-" and names no option is still a value
    when it reads as a negative number or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        name, equals, value = token.partition("=")
        if not equals:
            value = None
    else:
        name, value = token[:2], token[2:]
        value = value[1:] if value[:1] == "=" else value or None
    option = names.get(name)
    if option is None and (" " in token or _NEGATIVE_NUMBER.match(token)):
        return None
    return option, name, value


def _converted(option, name, text):
    try:
        value = option.type(text)
    except ValueError:
        kind = "an integer" if option.type is int else "a number"
        raise UsageError(f"{name}: not {kind}: {text!r}") from None
    if option.choices and value not in option.choices:
        raise UsageError(f"{name}: {text!r} is not one of {', '.join(option.choices)}")
    return value


def _parse(argv):
    """The command function that `argv` names, and its keyword arguments.

    The command words come first, then options in any order; the last of a
    repeated option wins.  Raises `_HelpShown` at `-h` or `--help`, and
    `UsageError` for a line that `_COMMANDS` does not admit: a bad command
    word or value where it stands, so before a later `--help`, and an
    unknown option, an extra argument or a missing required option at the
    end."""
    words, command, names = (), _COMMANDS[()], _NAMES[()]
    positionals = iter(())
    given, extras = {}, []
    tokens = iter(argv)
    for token in tokens:
        found = _option_in(token, names)
        if found is None:
            if command.run is None:
                if (*words, token) not in _COMMANDS:
                    what = "action" if words else "command"
                    raise UsageError(f"unknown {what} {token!r}")
                words += (token,)
                command, names = _COMMANDS[words], _NAMES[words]
                positionals = iter([o for o in command.options if o.names[0][0] != "-"])
                continue
            option = next(positionals, None)
            if option is None:
                extras.append(token)
            else:
                given[option.dest] = _converted(option, option.names[0], token)
            continue
        option, name, value = found
        if option is None:
            extras.append(token)
        elif option.type is bool:
            if value is not None:
                raise UsageError(f"{name} takes no value, not {value!r}")
            if option is _HELP:
                raise _HelpShown(words)
            given[option.dest] = True
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _option_in(value, names) is not None:
                    raise UsageError(f"{name} needs a value")
            given[option.dest] = _converted(option, name, value)
    if command.run is None:
        raise UsageError(f"{' '.join(('stc', *words))} needs "
                         f"{'an action' if words else 'a command'}")
    if extras:
        raise UsageError(f"unrecognized argument {extras[0]!r}")
    missing = ["/".join(o.names) for o in command.options
               if o.required and o.dest not in given]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    return command.run, {o.dest: given.get(o.dest, o.default) for o in command.options}


def _help(words):
    """The `--help` text of the command, or group of commands, that `words` name."""
    command = _COMMANDS[words]
    prog = " ".join(("stc", *words))
    usage, sections, rows = [], [], []
    if command.run is None:
        what = "action" if words else "command"
        usage.append(f"{what.upper()} ...")
        sections.append((f"{what}s:", [
            (key[-1], entry.help) for key, entry in _COMMANDS.items()
            if len(key) == len(words) + 1 and key[:-1] == words]))
    for option in (*command.options, _HELP):
        spelled, short = ", ".join(option.names), option.names[0]
        if short[0] == "-" and option.type is not bool:
            metavar = (f"{{{','.join(option.choices)}}}" if option.choices
                       else option.names[-1].lstrip("-").upper())
            spelled, short = f"{spelled} {metavar}", f"{short} {metavar}"
        if option is not _HELP:
            usage.append(short if option.required else f"[{short}]")
        rows.append((spelled, option.help))
    sections.append(("options:", rows))
    lines = [f"usage: {prog}"]
    for item in usage:
        if len(lines[-1]) + 1 + len(item) > 79:
            lines.append(" " * len(f"usage: {prog}"))
        lines[-1] += f" {item}"
    lines += ["", command.help]
    width = max(len(name) for _, entries in sections for name, _ in entries)
    for title, entries in sections:
        lines += ["", title]
        lines += [f"  {name:<{width}}  {text}".rstrip() for name, text in entries]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The cyclic collector is paused for the command and left as it was
    found.  The solve path makes no reference cycle, so a collector pass
    would only trace its allocations; reference counting frees them as
    before.  The few cycles other paths leave, such as the `--jobs` pool's
    or a first import's, are collected once the collector runs again."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        run, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        return run(**kwargs)
    except _HelpShown as shown:
        sys.stdout.write(_help(*shown.args))
        return EXIT_YES
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except STCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_SEMANTIC
    except Exception:  # a crash must never read as a verdict
        import traceback  # only on this path, to keep start-up lean

        sys.stderr.write(f"internal error: {traceback.format_exc()}")
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
