"""Command-line interface.

One `argparse` parser, built at import, reads every command line.  The
commands reach the library through this module's globals when they run, so
a caller may replace those (tests do).

Exit codes: 0 = yes, 1 = no, 64 = usage error, 65 = parse error,
66 = semantic error (including oracle caps), 70 = internal error (including
any unexpected exception).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats, oracle
from .digraph import classify
from .errors import InternalError, ParseError, SemanticError, STCError
from .extension import canonicalize, default_extension
from .generator import GeneratorParams, generate
from .reduction import _require_network, preprocess, reduce_network
from .solver import reconstruct_witness, solve

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_SEMANTIC = 66
EXIT_INTERNAL = 70


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SemanticError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte offset {exc.start}: not UTF-8 "
                         f"(byte 0x{exc.object[exc.start]:02x})")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SemanticError(f"cannot write {path}: {exc.strerror}")


class UsageError(Exception):
    """A command line that the parser or a command rejects: exit code 64."""


class _HelpShown(Exception):
    """`--help` printed its text: exit code 0."""


class _Parser(argparse.ArgumentParser):
    """Raises where `argparse` would print and exit, so `main` picks the code."""

    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        raise _HelpShown


def _load_network(path):
    return formats.parse_edgelist(_read(path))


def _load_extension(path, host):
    return formats.parse_extension(_read(path), host)


def _solve_one(paths):
    """Worker for batch mode; returns (name, verdict-or-error string)."""
    name, network_path, tree_path, extension_path = paths
    try:
        n = _load_network(network_path)
        t = _load_network(tree_path)
        ext = _load_extension(extension_path, n) if extension_path else None
        result = solve(preprocess(n, t, ext), keep_tables=False)
        return name, "YES" if result.displayed else "NO"
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
    if not network_path or not tree_path:
        raise UsageError("need -n and -t (or --batch)")
    n = _load_network(network_path)
    t = _load_network(tree_path)
    ext = _load_extension(extension_path, n) if extension_path else None
    inst = preprocess(n, t, ext)
    result = solve(inst, keep_tables=not decision_only)
    if not result.displayed:
        print("NO")
        return EXIT_NO
    print("YES")
    if witness:
        network, embedding = reconstruct_witness(result)
        print("REDUCED-INSTANCE")
        sys.stdout.write(formats.serialize_edgelist(network))
        for (x, y) in sorted(embedding):
            path = " ".join(embedding[(x, y)])
            print(f"EMBED {x} {y} : {path}")
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
    tasks = []
    for entry in entries:
        if not entry.endswith(".network"):
            continue
        name = entry[:-len(".network")]
        tree = os.path.join(batch_dir, f"{name}.tree")
        if not os.path.exists(tree):
            continue
        ext = os.path.join(batch_dir, f"{name}.extension")
        tasks.append((name, os.path.join(batch_dir, entry), tree,
                      ext if os.path.exists(ext) else None))
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
    taxa = None
    if tree_path:
        taxa = _load_network(tree_path).taxa
    ext, trace = reduce_network(n, ext, taxa=taxa)
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
    n = _load_network(network_path)
    _require_network(n)
    return n, _load_network(tree_path)


def oracle_firm(network_path, tree_path, cap, method):
    n, t = _oracle_inputs(network_path, tree_path, cap, method)
    if method == "subsets":
        answer = oracle.firm_display(n, t, cap=cap)
    else:
        answer = oracle.firm_display_switching(n, t)
    print("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


def oracle_soft(network_path, tree_path, cap, method):
    n, t = _oracle_inputs(network_path, tree_path, cap, method)
    answer = oracle.soft_display(n, t, method=method, cap=cap)
    print("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


def gen_cmd(leaves, reticulations, polytomy_rate, seed, yes_biased, prefix):
    """Generate a seeded random instance."""
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


def _build_parser():
    """The parser of every command line.  It names the command's function as
    `run`, and that function's parameters as the other attributes."""
    parser = _Parser(prog="stc", allow_abbrev=False, description=(
        "Decide whether a phylogenetic network softly displays a tree."))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run, required="", optional=""):
        """A parser for `run`, with the -n/-t/-x file options named by letter."""
        sub = group.add_parser(name, allow_abbrev=False, description=run.__doc__,
                               help=(run.__doc__ or "").split("\n")[0])
        sub.set_defaults(run=run)
        for letter in required + optional:
            what = {"n": "network", "t": "tree", "x": "extension"}[letter]
            sub.add_argument(f"-{letter}", f"--{what}", dest=f"{what}_path",
                             required=letter in required, help=f"{what} file")
        return sub

    def group(name, doc):
        sub = commands.add_parser(name, allow_abbrev=False, help=doc, description=doc)
        return sub.add_subparsers(metavar="ACTION", required=True)

    sub = command(commands, "solve", solve_cmd, optional="ntx")
    sub.add_argument("--witness", action="store_true", help="print an embedding on yes")
    sub.add_argument("--decision-only", action="store_true",
                     help="free tables eagerly; excludes --witness")
    sub.add_argument("--batch", dest="batch_dir", metavar="DIR",
                     help="solve every NAME.network/NAME.tree pair in a directory")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for --batch (default: 1)")
    sub = command(commands, "reduce", reduce_cmd, required="n", optional="xt")
    sub.add_argument("-o", "--output", dest="prefix", required=True,
                     help="output prefix; writes PREFIX.network and PREFIX.extension")
    extension = group("extension", "Inspect and transform tree extensions.")
    command(extension, "validate", extension_validate, required="nx")
    command(extension, "width", extension_width, required="nx")
    command(extension, "canonicalize", extension_canonicalize, required="nx")
    command(extension, "default", extension_default, required="n")
    oracles = group("oracle", "Brute-force reference answers on small instances.")
    for name, run, method in (("firm", oracle_firm, "subsets"),
                              ("soft", oracle_soft, "switching")):
        sub = command(oracles, name, run, required="nt")
        sub.add_argument("--cap", type=int, help="arc-count cap of --method subsets")
        sub.add_argument("--method", choices=("subsets", "switching"), default=method,
                         help=f"(default: {method})")
    sub = command(commands, "gen", gen_cmd)
    sub.add_argument("--leaves", type=int, required=True)
    sub.add_argument("--reticulations", type=int, default=0)
    sub.add_argument("--polytomy", dest="polytomy_rate", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--yes-biased", action="store_true",
                     help="skip the leaf relabeling that scrambles the answer")
    sub.add_argument("-o", "--output", dest="prefix", help="write PREFIX.network, "
                     "PREFIX.tree and PREFIX.extension instead of printing")
    sub = command(commands, "import", import_cmd)
    sub.add_argument("fmt", choices=("enewick",))
    sub.add_argument("path")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = vars(_PARSER.parse_args(argv))
        return args.pop("run")(**args)
    except _HelpShown:
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


if __name__ == "__main__":
    sys.exit(main())
