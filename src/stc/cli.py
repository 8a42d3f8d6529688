"""Command-line interface.

Exit codes: 0 = yes, 1 = no, 64 = usage error, 65 = parse error,
66 = semantic error (including oracle caps), 70 = internal error (including
any unexpected exception).
"""

from __future__ import annotations

import sys

import click

from . import formats, oracle
from .digraph import classify
from .errors import InternalError, ParseError, SemanticError, STCError
from .extension import canonicalize, default_extension
from .generator import GeneratorParams, generate
from .reduction import preprocess, reduce_network
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


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SemanticError(f"cannot write {path}: {exc.strerror}")


def _echo(message, nl=True):
    """`click.echo` to the current `sys.stdout`.  Without `file=`, click
    caches a wrapper per stdout stream whose value holds its own key, so
    every stream a caller swaps in as stdout would stay alive for good."""
    click.echo(message, file=sys.stdout, nl=nl)


def _load_network(path):
    return formats.parse_edgelist(_read(path))


def _load_extension(path, host):
    return formats.parse_extension(_read(path), host)


@click.group()
def cli():
    """Decide whether a phylogenetic network softly displays a tree."""


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


@cli.command("solve")
@click.option("-n", "--network", "network_path",
              type=click.Path(), help="network edge-list file")
@click.option("-t", "--tree", "tree_path",
              type=click.Path(), help="tree edge-list file")
@click.option("-x", "--extension", "extension_path", type=click.Path(),
              help="tree-extension file (defaults to a computed extension)")
@click.option("--witness", is_flag=True, help="print an embedding on yes")
@click.option("--decision-only", is_flag=True,
              help="free tables eagerly; excludes --witness")
@click.option("--batch", "batch_dir", type=click.Path(),
              help="solve every NAME.network/NAME.tree pair in a directory")
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True, help="worker processes for --batch")
def solve_cmd(network_path, tree_path, extension_path, witness, decision_only,
              batch_dir, jobs):
    """Decide soft display; exits 0 on yes and 1 on no."""
    if witness and decision_only:
        raise click.UsageError("--witness needs the tables --decision-only frees")
    if batch_dir:
        if network_path or tree_path or extension_path or witness:
            raise click.UsageError("--batch excludes per-instance options")
        return _solve_batch(batch_dir, jobs)
    if not network_path or not tree_path:
        raise click.UsageError("need -n and -t (or --batch)")
    n = _load_network(network_path)
    t = _load_network(tree_path)
    ext = _load_extension(extension_path, n) if extension_path else None
    inst = preprocess(n, t, ext)
    result = solve(inst, keep_tables=not decision_only)
    if not result.displayed:
        _echo("NO")
        return EXIT_NO
    _echo("YES")
    if witness:
        network, embedding = reconstruct_witness(result)
        _echo("REDUCED-INSTANCE")
        _echo(formats.serialize_edgelist(network), nl=False)
        for (x, y) in sorted(embedding):
            path = " ".join(embedding[(x, y)])
            _echo(f"EMBED {x} {y} : {path}")
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
    import os

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
        _echo(f"{name} {verdict}")
        if verdict.startswith("ERROR"):
            failed = True
    return EXIT_SEMANTIC if failed else EXIT_YES


@cli.command("reduce")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-x", "--extension", "extension_path", type=click.Path())
@click.option("-t", "--tree", "tree_path", type=click.Path(),
              help="prune the network to this tree's taxa first")
@click.option("-o", "--output", "prefix", required=True,
              help="output prefix; writes PREFIX.network and PREFIX.extension")
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
        _echo(f"step {step.kind} {getattr(step, 'vertex', None) or '-'}: "
                 f"width {before} -> {after}")
    return EXIT_YES


@cli.group("extension")
def extension_group():
    """Inspect and transform tree extensions."""


@extension_group.command("validate")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-x", "--extension", "extension_path", required=True, type=click.Path())
def extension_validate(network_path, extension_path):
    n = _load_network(network_path)
    _load_extension(extension_path, n)  # raises on violation
    _echo("valid")
    return EXIT_YES


@extension_group.command("width")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-x", "--extension", "extension_path", required=True, type=click.Path())
def extension_width(network_path, extension_path):
    n = _load_network(network_path)
    ext = _load_extension(extension_path, n)
    _echo(str(ext.width()))
    return EXIT_YES


@extension_group.command("canonicalize")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-x", "--extension", "extension_path", required=True, type=click.Path())
def extension_canonicalize(network_path, extension_path):
    n = _load_network(network_path)
    ext = canonicalize(_load_extension(extension_path, n))
    _echo(formats.serialize_extension(ext), nl=False)
    return EXIT_YES


@extension_group.command("default")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
def extension_default(network_path):
    n = _load_network(network_path)
    _echo(formats.serialize_extension(default_extension(n)), nl=False)
    return EXIT_YES


@cli.group("oracle")
def oracle_group():
    """Brute-force reference answers on small instances."""


@oracle_group.command("firm")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-t", "--tree", "tree_path", required=True, type=click.Path())
@click.option("--cap", type=int, default=None, help="arc-count cap override")
@click.option("--method", type=click.Choice(["subsets", "switching"]),
              default="subsets", show_default=True)
def oracle_firm(network_path, tree_path, cap, method):
    n = _load_network(network_path)
    t = _load_network(tree_path)
    if method == "subsets":
        answer = oracle.firm_display(n, t, cap=cap)
    else:
        answer = oracle.firm_display_switching(n, t)
    _echo("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


@oracle_group.command("soft")
@click.option("-n", "--network", "network_path", required=True, type=click.Path())
@click.option("-t", "--tree", "tree_path", required=True, type=click.Path())
@click.option("--cap", type=int, default=None, help="arc-count cap override")
@click.option("--method", type=click.Choice(["subsets", "switching"]),
              default="switching", show_default=True)
def oracle_soft(network_path, tree_path, cap, method):
    n = _load_network(network_path)
    t = _load_network(tree_path)
    answer = oracle.soft_display(n, t, method=method, cap=cap)
    _echo("true" if answer else "false")
    return EXIT_YES if answer else EXIT_NO


@cli.command("gen")
@click.option("--leaves", type=int, required=True)
@click.option("--reticulations", type=int, default=0, show_default=True)
@click.option("--polytomy", "polytomy_rate", type=float, default=0.0,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--yes-biased", is_flag=True,
              help="skip the leaf relabeling that scrambles the answer")
@click.option("-o", "--output", "prefix",
              help="write PREFIX.network / PREFIX.tree / PREFIX.extension "
                   "instead of printing")
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
        _echo(inst.network_doc, nl=False)
        _echo(inst.tree_doc, nl=False)
        _echo(inst.extension_doc, nl=False)
    return EXIT_YES


@cli.command("import")
@click.argument("fmt", type=click.Choice(["enewick"]))
@click.argument("path", type=click.Path())
def import_cmd(fmt, path):
    """Convert an eNewick file to the edge-list format."""
    graph = formats.parse_enewick(_read(path))
    kind = classify(graph)
    _echo(formats.serialize_edgelist(graph), nl=False)
    if not kind:
        raise SemanticError(f"imported graph is not usable: {kind.reason}")
    return EXIT_YES


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv or 0)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.exceptions.Abort:
        return EXIT_USAGE
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_PARSE
    except InternalError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return EXIT_INTERNAL
    except STCError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_SEMANTIC
    except Exception:  # a crash must never read as a verdict
        import traceback  # only on this path, to keep start-up lean

        click.echo(f"internal error: {traceback.format_exc()}", err=True, nl=False)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
