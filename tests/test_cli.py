"""End-to-end CLI behaviour including exit codes and witness output."""

import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stc
from stc import (
    Digraph,
    GeneratorParams,
    TreeExtension,
    check_embedding,
    default_extension,
    generate,
    parse_edgelist,
    preprocess,
    prune_to_leafset,
    serialize_edgelist,
    serialize_extension,
    solve,
)
from stc.cli import main

NET_A = """\
network a
A rho s
A rho t
A s p
A s r
A p a
A p b
A r c
A t r
A t d
L a a
L b b
L c c
L d d
"""

TREE_D = """\
A x y
A y a
A y b
A y c
A x d
L a a
L b b
L c c
L d d
"""

TREE_C = """\
A x y
A y a
A y z
A z b
A z c
A x d
L a a
L b b
L c c
L d d
"""


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [("net_a", NET_A), ("tree_d", TREE_D), ("tree_c", TREE_C)]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_solve_yes_and_no(files, capsys):
    assert main(["solve", "-n", files["net_a"], "-t", files["tree_d"]]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert main(["solve", "-n", files["net_a"], "-t", files["tree_c"]]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_witness_output_verifies(files, capsys):
    assert main(["solve", "-n", files["net_a"], "-t", files["tree_d"],
                 "--witness"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "YES"
    assert lines[1] == "REDUCED-INSTANCE"
    embeds = [l for l in lines if l.startswith("EMBED ")]
    doc = "\n".join(l for l in lines[2:] if not l.startswith("EMBED "))
    reduced = parse_edgelist(doc)
    phi = {}
    for line in embeds:
        head, _, path = line.partition(" : ")
        _, x, y = head.split()
        phi[(x, y)] = tuple(path.split())
    # reconstruct the reduced tree from the embedded arcs
    tree_arcs = sorted(phi)
    tree = parse_edgelist(
        "\n".join([f"A {u} {v}" for (u, v) in tree_arcs]
                  + [f"L {v} {t}" for v, t in
                     {p[-1]: reduced.label_of(p[-1])
                      for (x, y), p in phi.items()
                      if reduced.label_of(p[-1])}.items()]))
    assert check_embedding(phi, tree, reduced)


def test_usage_errors(files, capsys):
    assert main(["solve", "-n", files["net_a"]]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["solve", "-n", files["net_a"], "-t", files["tree_d"],
                 "--witness", "--decision-only"]) == 64


@pytest.mark.parametrize("argv, code", [
    ([], 64),
    (["frobnicate"], 64),
    (["solve", "--bogus"], 64),
    (["solve", "-n"], 64),
    (["solve", "--decision", "-n", "NET", "-t", "TREE"], 64),  # no abbreviations
    (["gen"], 64),
    (["gen", "--leaves", "x"], 64),
    (["oracle", "soft", "-n", "NET", "-t", "TREE", "--method", "zzz"], 64),
    (["extension"], 64),
    (["reduce", "-n", "NET"], 64),
    (["import", "yaml", "NET"], 64),
    (["solve", "--batch", "DIR", "--jobs", "-2"], 64),
    # a negative number is a value, and the generator rejects this one
    (["gen", "--leaves", "3", "--polytomy", "-0.5"], 66),
    # --cap bounds the subset enumeration only
    (["oracle", "soft", "-n", "NET", "-t", "TREE", "--cap", "1"], 64),
    (["oracle", "firm", "-n", "NET", "-t", "TREE", "--method", "switching",
      "--cap", "1"], 64),
    (["solve", "--batch", "DIR", "-n", "NET"], 64),
])
def test_bad_command_lines_exit_with_a_message(argv, code, files, capsys):
    where = {"NET": files["net_a"], "TREE": files["tree_d"], "DIR": str(files["dir"])}
    assert main([where.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_help_prints_usage_and_exits_0(capsys):
    for argv in (["--help"], ["solve", "--help"], ["extension", "width", "--help"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.lower().startswith("usage:")
        if argv[0] == "solve":
            for option in ("--network", "--tree", "--extension", "--witness",
                           "--decision-only", "--batch", "--jobs"):
                assert option in captured.out


def test_importing_the_cli_loads_no_click():
    src = os.path.dirname(os.path.dirname(stc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, stc.cli; print('click' in sys.modules)"],
        env=env, capture_output=True, check=True, text=True).stdout
    assert out == "False\n"


def test_the_solve_path_loads_neither_the_generator_nor_dataclasses(files):
    # `-S`: a `site` hook may preload modules that the program never asks for.
    src = os.path.dirname(os.path.dirname(stc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from stc.cli import main\n"
        "def loaded():\n"
        "    return [m for m in ('dataclasses', 'inspect', 'stc.generator',"
        " 'stc.oracle') if m in sys.modules]\n"
        "print(loaded())\n"
        "print(main(['solve', '-n', sys.argv[1], '-t', sys.argv[2]]), loaded())\n"
        "print(main(['gen', '--leaves', '4', '--seed', '1', '-o', sys.argv[3]]),"
        " 'stc.generator' in sys.modules)\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, files["net_a"], files["tree_d"],
         str(files["dir"] / "gen")],
        env=env, capture_output=True, check=True, text=True).stdout
    assert out == "[]\nYES\n0 []\n0 True\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A a\n")
    good = tmp_path / "good.txt"
    good.write_text(TREE_D)
    assert main(["solve", "-n", str(bad), "-t", str(good)]) == 65
    assert "line 1" in capsys.readouterr().err
    # A byte that is no UTF-8 is a parse error too, in batch mode as well.
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "i.network").write_bytes(b"A r x\xff\n")
    (batch / "i.tree").write_text(TREE_D)
    undecodable = str(batch / "i.network")
    for argv in (["solve", "-n", undecodable, "-t", str(good)],
                 ["import", "enewick", undecodable],
                 ["extension", "validate", "-n", undecodable, "-x", undecodable]):
        assert main(argv) == 65
        assert capsys.readouterr().err == (
            f"error: {undecodable}: byte offset 5: not UTF-8 (byte 0xff)\n")
    assert main(["solve", "--batch", str(batch)]) == 66
    assert capsys.readouterr().out == (
        f"i ERROR {undecodable}: byte offset 5: not UTF-8 (byte 0xff)\n")


def test_semantic_error_exit_code(tmp_path, files, capsys):
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("A x e\nA x f\nL e q\nL f w\n")
    assert main(["solve", "-n", files["net_a"], "-t", str(foreign)]) == 66


def test_reduce_writes_files(files, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    assert main(["reduce", "-n", files["net_a"], "-o", prefix]) == 0
    net = parse_edgelist((tmp_path / "out.network").read_text())
    assert net.root().startswith("g")
    assert (tmp_path / "out.extension").read_text().startswith("E ")


def test_unwritable_output_is_a_semantic_error(files, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x")
    for argv in (["gen", "--leaves", "6", "--seed", "3", "-o", missing],
                 ["reduce", "-n", files["net_a"], "-o", missing]):
        assert main(argv) == 66
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}.network: ")
        assert "Traceback" not in err


# sha256 of PREFIX.network, PREFIX.extension and stdout of `stc reduce`.
# All three in-split and keep their polytomies for the solver, and seed 4 runs
# against a tree without its last three taxa, so it starts with a prune.
_REDUCE_GOLDEN = {
    (1, 0): ("d24b4aae5546c6208da529ae1db8d4a74237462f364ca2d2ef046c9d290ad38a",
             "c994bddb17ef43ad8a8e6608bab0c986c9f51c5f48d7c74b626e3c5c47f1fa60",
             "37c9b24da22f1fb8e7d75e42633c4e2163b1d121ec4821ed6d74780f296965aa"),
    (3, 0): ("4cdd5cb45ac4b596f77e48f8035450357e1c4edc2ac71515bba2024fcb22f362",
             "ad575ddd2d2fa1e1c52a71a4c3890c3ca8c707f3d75fd0d00f965eb972ca9f40",
             "fbf757d27a14440d94293416e6f3137cf4f490788840edaa71284eea99e16a91"),
    (4, 3): ("4506a96f7341934c1684bbe43342c6f8b96db69a12816c10e0e899c839958838",
             "bab5a8c15c89c4b324ff444cea6f409091ee422654292c45d555b7c951430df5",
             "cd28efc0ad34210d16fbb1ca97d96bb5b1496bb62dd38562498ddf1de174b879"),
}


def _write_golden_instance(seed, dropped, tmp_path):
    inst = generate(GeneratorParams(10, 3, 0.4, seed, "yes-biased"))
    tree = inst.tree
    if dropped:
        tree, _ = prune_to_leafset(tree, sorted(tree.taxa)[:-dropped])
    (tmp_path / "net").write_text(inst.network_doc)
    (tmp_path / "tree").write_text(serialize_edgelist(tree))


@pytest.mark.parametrize("seed, dropped", sorted(_REDUCE_GOLDEN))
def test_reduce_output_is_pinned(seed, dropped, tmp_path, capsys):
    _write_golden_instance(seed, dropped, tmp_path)
    prefix = tmp_path / "out"
    assert main(["reduce", "-n", str(tmp_path / "net"), "-t", str(tmp_path / "tree"),
                 "-o", str(prefix)]) == 0
    stdout = capsys.readouterr().out
    kinds = [line.split()[1] for line in stdout.splitlines()]
    assert "stretch" not in kinds and "insplit" in kinds
    assert ("prune" in kinds) == bool(dropped)
    outputs = ((tmp_path / "out.network").read_text(),
               (tmp_path / "out.extension").read_text(), stdout)
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in outputs) == _REDUCE_GOLDEN[seed, dropped]


# sha256 of PREFIX.network, PREFIX.extension and stdout of `stc reduce -x -t`
# on `GeneratorParams(12, 6, 0.5, 5, "yes-biased")`, given an extension that
# the reduction must canonicalize: a chain along the network's topological
# order, or the default extension against a tree without its last six taxa,
# whose pruned host it no longer fits canonically.
_REDUCE_X_GOLDEN = {
    ("chain", 0): ("2cb8cf4ae098dcf05f7e91868d98dbac5928932525a8564eac8f374f08c24a82",
                   "20841c458ca43fda58a90c850a4ae7bb95b1cb25ee054d09f4aa9c251e2e0495",
                   "03ac1199906c015e2898f230eb9bd945fc1f1bfbcc6328edf7c0b2cd252e6ba5"),
    ("chain", 6): ("eab961a311cd776c8e0ca2ce6c2b40d6af1b5f14eb1636a4aad5d5c4c60378dc",
                   "ace73472be2b8e5781434496bdf1502573c99b8763bd8277ff83fd1cc2561993",
                   "7245b5c8834abca161c2f62fa93a2f33e40ce80635fbfa07fbb474e17b804a31"),
    ("default", 6): ("eab961a311cd776c8e0ca2ce6c2b40d6af1b5f14eb1636a4aad5d5c4c60378dc",
                     "ace73472be2b8e5781434496bdf1502573c99b8763bd8277ff83fd1cc2561993",
                     "f718ca5d14604d7f9d95b790392465f62930110e2250334fa9ab35e3ffdf5cc8"),
}


@pytest.mark.parametrize("given, dropped", sorted(_REDUCE_X_GOLDEN))
def test_reduce_canonicalizes_a_given_extension(given, dropped, tmp_path, capsys):
    inst = generate(GeneratorParams(12, 6, 0.5, 5, "yes-biased"))
    network, tree = inst.network, inst.tree
    if dropped:
        tree, _ = prune_to_leafset(tree, sorted(tree.taxa)[:-dropped])
    ext = default_extension(network)
    if given == "chain":
        order = network.topological_order()
        ext = TreeExtension(network, Digraph(list(zip(order, order[1:]))))
    files = {"net": inst.network_doc, "tree": serialize_edgelist(tree),
             "ext": serialize_extension(ext)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    prefix = tmp_path / "out"
    assert main(["reduce", "-n", str(tmp_path / "net"), "-x", str(tmp_path / "ext"),
                 "-t", str(tmp_path / "tree"), "-o", str(prefix)]) == 0
    stdout = capsys.readouterr().out
    kinds = [line.split()[1] for line in stdout.splitlines()]
    assert ("prune" in kinds) == bool(dropped)
    outputs = ((tmp_path / "out.network").read_text(),
               (tmp_path / "out.extension").read_text(), stdout)
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in outputs) == _REDUCE_X_GOLDEN[given, dropped]


# sha256 of `stc solve --witness` stdout on two of the instances above.  The
# witness is the run that the solver's tables record first, in insertion order,
# and each polytomy it resolves prints with fresh vertices.
_WITNESS_GOLDEN = {
    (1, 0): "544e9eded1e6fcd16530bd3b0542dd6e191503fd454d18b853284ac5b265026a",
    (3, 0): "c13cb58dbee2d6002162ce59eba17ce6cab79e2f50c4dabb0502fe8f9f78f774",
}


@pytest.mark.parametrize("seed, dropped", sorted(_WITNESS_GOLDEN))
def test_witness_output_is_pinned_across_hash_seeds(seed, dropped, tmp_path):
    _write_golden_instance(seed, dropped, tmp_path)
    src = os.path.dirname(os.path.dirname(stc.__file__))
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "stc.cli", "solve", "-n", str(tmp_path / "net"),
             "-t", str(tmp_path / "tree"), "--witness"],
            env=env, capture_output=True, check=True).stdout
        assert hashlib.sha256(out).hexdigest() == _WITNESS_GOLDEN[seed, dropped]


def _witness_problems(tree_text, output):
    """The benchmark gate's rules for `stc solve --witness` output, with no
    help from `stc`: one EMBED line per arc of the tree plus its fresh root
    arc; every path has an arc and runs along arcs of the printed network;
    each child path starts where its parent's ends; each leaf arc ends at
    the network leaf of its taxon; the root arc starts at the printed root."""

    def edges(lines):
        arcs, labels = set(), {}
        for line in lines:
            kind, *rest = line.split()
            if kind == "A":
                arcs.add(tuple(rest))
            elif kind == "L":
                labels[rest[0]] = rest[1]
        return arcs, labels

    lines = output.splitlines()
    assert lines[:2] == ["YES", "REDUCED-INSTANCE"]
    phi = {}
    for line in lines[2:]:
        if line.startswith("EMBED "):
            head, _, path = line[len("EMBED "):].partition(" : ")
            assert tuple(head.split()) not in phi
            phi[tuple(head.split())] = path.split()
    net_arcs, net_labels = edges(l for l in lines[2:] if not l.startswith("EMBED "))
    tree_arcs, tree_labels = edges(tree_text.splitlines())
    (tree_root,) = {u for u, _ in tree_arcs} - {v for _, v in tree_arcs}
    (net_root,) = {u for u, _ in net_arcs} - {v for _, v in net_arcs}
    root_arcs = [a for a in phi if a[1] == tree_root]
    problems = []
    if len(root_arcs) != 1 or set(phi) != tree_arcs | set(root_arcs):
        return ["EMBED lines differ from the reduced tree's arcs"]
    for (x, y), path in phi.items():
        if len(path) < 2:
            problems.append(f"{(x, y)} has no arc")
        if not set(zip(path, path[1:])) <= net_arcs:
            problems.append(f"{(x, y)} leaves the printed network")
        for (x2, y2), child in phi.items():
            if x2 == y and child[0] != path[-1]:
                problems.append(f"{(x2, y2)} does not start where {(x, y)} ends")
        if y in tree_labels and net_labels.get(path[-1]) != tree_labels[y]:
            problems.append(f"{(x, y)} ends off the leaf of {tree_labels[y]}")
    if phi[root_arcs[0]][0] != net_root:
        problems.append("the root arc does not start at the printed root")
    return problems


def test_witness_through_resolved_polytomies_meets_the_gate(tmp_path, capsys):
    star = "A r a\nA r b\nA r c\nL a a\nL b b\nL c c\n"
    cherry = "A x y\nA y a\nA y b\nA x c\nL a a\nL b b\nL c c\n"
    g = generate(GeneratorParams(8, 1, 0.5, 3, "yes-biased"))
    assert g.network.max_out_degree == 4
    for name, network, tree, fresh in (("star", star, cherry, 1),
                                       ("generated", g.network_doc, g.tree_doc, 4)):
        (tmp_path / f"{name}.net").write_text(network)
        (tmp_path / f"{name}.tree").write_text(tree)
        assert main(["solve", "-n", str(tmp_path / f"{name}.net"),
                     "-t", str(tmp_path / f"{name}.tree"), "--witness"]) == 0
        out = capsys.readouterr().out
        assert _witness_problems(tree, out) == []
        printed = parse_edgelist("\n".join(
            l for l in out.splitlines()[2:] if not l.startswith("EMBED ")))
        # the reduced network plus the resolutions' fresh vertices
        reduced = preprocess(parse_edgelist(network), parse_edgelist(tree)).network
        assert len(printed) == len(reduced) + fresh


def test_extension_commands(files, tmp_path, capsys):
    assert main(["extension", "default", "-n", files["net_a"]]) == 0
    ext_text = capsys.readouterr().out
    ext_file = tmp_path / "gamma.txt"
    ext_file.write_text(ext_text)
    assert main(["extension", "validate", "-n", files["net_a"],
                 "-x", str(ext_file)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["extension", "width", "-n", files["net_a"],
                 "-x", str(ext_file)]) == 0
    assert capsys.readouterr().out.strip().isdigit()
    assert main(["extension", "canonicalize", "-n", files["net_a"],
                 "-x", str(ext_file)]) == 0


def test_oracle_commands(files, capsys):
    assert main(["oracle", "firm", "-n", files["net_a"],
                 "-t", files["tree_d"]]) == 1
    assert capsys.readouterr().out.strip() == "false"
    assert main(["oracle", "soft", "-n", files["net_a"],
                 "-t", files["tree_d"]]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["oracle", "firm", "-n", files["net_a"],
                 "-t", files["tree_d"], "--cap", "3"]) == 66


def test_oracles_refuse_a_tree_that_is_no_out_tree(files, capsys):
    # No verdict and no crash: net_a has a reticulation, and the other
    # "tree" is tree_d beside a directed cycle that its root cannot reach.
    cyclic = files["dir"] / "cyclic.txt"
    cyclic.write_text(TREE_D + "A c1 c2\nA c2 c1\n")
    for tree, reason in ((files["net_a"], "vertex 'r' has in-degree 2"),
                         (str(cyclic), "contains a directed cycle")):
        for command in ("firm", "soft"):
            assert main(["oracle", command, "-n", files["net_a"], "-t", tree]) == 66
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: not a phylogenetic tree: {reason}\n"


def test_oracles_refuse_a_network_that_solve_refuses(files, capsys):
    # net_a beside a directed cycle that its root cannot reach, and net_a
    # below a degree-1 root.
    cyclic = files["dir"] / "cyclic_net.txt"
    cyclic.write_text(NET_A + "A c1 c2\nA c2 c1\n")
    deg1 = files["dir"] / "deg1_net.txt"
    deg1.write_text(NET_A + "A g rho\n")
    for network, reason in ((cyclic, "contains a directed cycle"),
                            (deg1, "root out-degree 1")):
        for command in (["solve"], ["oracle", "firm"], ["oracle", "soft"],
                        ["oracle", "firm", "--method", "switching"]):
            assert main([*command, "-n", str(network), "-t", files["tree_d"]]) == 66
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: not a phylogenetic network: {reason}\n"
    deg1_tree = files["dir"] / "deg1_tree.txt"
    deg1_tree.write_text(TREE_D + "A g x\n")
    assert main(["solve", "-n", files["net_a"], "-t", str(deg1_tree)]) == 66
    assert capsys.readouterr().err == "error: not a phylogenetic tree: root out-degree 1\n"


# net_a with in-1/out-1 vertices (s and u), and net_a beside a directed
# cycle that its root cannot reach.
PASSTHROUGH_NET = """\
A rho s
A rho t
A s u
A u p
A p a
A p b
A t c
A t d
L a a
L b b
L c c
L d d
"""
CYCLIC_NET = NET_A + "A c1 c2\nA c2 c1\n"
DEG1_NET = NET_A + "A g rho\n"
DEG1_TREE = TREE_D + "A g x\n"
RETICULATE_TREE = "not a phylogenetic tree: vertex 'r' has in-degree 2"
FOREIGN_TREE = TREE_D + "A x e\nA x f\nL e e\nL f f\n"
FOREIGN_TAXA = "tree taxa missing from the network: ['e', 'f']"


@pytest.mark.parametrize("command, network, tree, reason", [
    (["solve"], NET_A, NET_A, RETICULATE_TREE),
    (["reduce"], NET_A, NET_A, RETICULATE_TREE),
    (["reduce"], NET_A, DEG1_TREE, "not a phylogenetic tree: root out-degree 1"),
    (["solve"], NET_A, FOREIGN_TREE, FOREIGN_TAXA),
    (["reduce"], NET_A, FOREIGN_TREE, FOREIGN_TAXA),
    (["reduce"], PASSTHROUGH_NET, None,
     "not a phylogenetic network: vertex 's' has in-degree 1 and out-degree 1"),
    (["reduce"], CYCLIC_NET, None, "not a phylogenetic network: contains a directed cycle"),
    (["reduce"], DEG1_NET, None, "not a phylogenetic network: root out-degree 1"),
    *[(["oracle", *oracle], NET_A, DEG1_TREE, "not a phylogenetic tree: root out-degree 1")
      for oracle in (["firm"], ["soft"], ["firm", "--method", "switching"],
                     ["soft", "--method", "subsets"])],
], ids=["solve-network-as-tree", "reduce-network-as-tree", "reduce-deg1-tree",
        "solve-foreign-taxa", "reduce-foreign-taxa",
        "reduce-passthrough-net", "reduce-cyclic-net", "reduce-deg1-net",
        "firm-deg1-tree", "soft-deg1-tree", "firm-switching-deg1-tree",
        "soft-subsets-deg1-tree"])
def test_commands_refuse_what_solve_refuses(command, network, tree, reason,
                                            tmp_path, capsys):
    (tmp_path / "net").write_text(network)
    argv = [*command, "-n", str(tmp_path / "net")]
    if tree is not None:
        (tmp_path / "tree").write_text(tree)
        argv += ["-t", str(tmp_path / "tree")]
    if command == ["reduce"]:
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == 66
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert not list(tmp_path.glob("out.*"))


def test_batch_names_why_it_refuses_a_tree(tmp_path, capsys):
    (tmp_path / "i.network").write_text(NET_A)
    (tmp_path / "i.tree").write_text(NET_A)
    assert main(["solve", "--batch", str(tmp_path)]) == 66
    assert capsys.readouterr().out == f"i ERROR {RETICULATE_TREE}\n"


# An extension of the tree r -> s -> {a, b}, r -> t -> {c, d} with the one
# root r, and a cycle t -> c -> d -> t that r does not reach.
CYCLIC_EXTENSION = "E r s\nE s a\nE s b\nE t c\nE c d\nE d t\n"


@pytest.mark.parametrize("argv, docs, code, reason", [
    (["solve", "--batch", "DIR/gone"], {}, 66,
     "cannot read DIR/gone: No such file or directory"),
    (["solve", "--batch", "DIR"], {"x.network": NET_A}, 66,
     "no NAME.network/NAME.tree pairs in DIR"),
    (["solve", "-n", "DIR/n", "-t", "DIR/t", "-x", "DIR/x"],
     {"n": NET_A, "t": TREE_D, "x": "# no lines\n\n"}, 65,
     "line 1, column 1: extension document contains no lines"),
    (["extension", "validate", "-n", "DIR/n", "-x", "DIR/x"],
     {"n": "A r s\nA r t\nA s a\nA s b\nA t c\nA t d\n"
           "L a a\nL b b\nL c c\nL d d\n", "x": CYCLIC_EXTENSION}, 66,
     "invalid tree extension: not an out-tree: cyclic"),
], ids=["batch-missing-dir", "batch-no-pairs", "comment-only-extension",
        "cyclic-extension"])
def test_refusals_name_their_reason(argv, docs, code, reason, tmp_path, capsys):
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    where = str(tmp_path)
    assert main([arg.replace("DIR", where) for arg in argv]) == code
    assert capsys.readouterr() == ("", f"error: {reason.replace('DIR', where)}\n")


def test_gen_and_import(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--leaves", "4", "--reticulations", "1",
                 "--seed", "5", "-o", prefix]) == 0
    assert main(["solve", "-n", f"{prefix}.network", "-t", f"{prefix}.tree",
                 "-x", f"{prefix}.extension"]) in (0, 1)
    capsys.readouterr()

    nwk = tmp_path / "net.nwk"
    nwk.write_text("(((a,b),(c)#H1),(#H1,d));\n")
    assert main(["import", "enewick", str(nwk)]) == 0
    out = capsys.readouterr().out
    assert parse_edgelist(out).taxa == frozenset("abcd")


def test_batch_mode(tmp_path, capsys):
    for seed in (1, 2):
        main(["gen", "--leaves", "4", "--reticulations", "1",
              "--seed", str(seed), "-o", str(tmp_path / f"i{seed}")])
    # A network without its tree beside the pairs is skipped.
    (tmp_path / "y.network").write_text(NET_A)
    capsys.readouterr()
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["i1", "i2"]
    assert all(line.split()[1] in ("YES", "NO") for line in out)


def test_unexpected_exception_exits_internal(files, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("stc.cli.solve", crash)
    assert main(["solve", "-n", files["net_a"], "-t", files["tree_d"]]) == 70
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_deep_enewick_never_reads_as_a_verdict(tmp_path, capsys):
    # 1500 nested levels: deeper than the interpreter's recursion limit.
    text = "a"
    for i in range(1500):
        text = f"({text},b{i})"
    nwk = tmp_path / "deep.nwk"
    nwk.write_text(text + ";\n")
    assert main(["import", "enewick", str(nwk)]) == 0
    graph = parse_edgelist(capsys.readouterr().out)
    assert len(graph.leaves) == 1501
    assert graph.taxa == {"a"} | {f"b{i}" for i in range(1500)}


def test_deep_caterpillar_oracle_answers(tmp_path, capsys):
    # 1500 leaves: a tree deeper than the interpreter's recursion limit.
    lines = [f"A s{i} s{i + 1}\nA s{i} p{i}\nL p{i} t{i}" for i in range(1499)]
    cat = tmp_path / "cat.txt"
    cat.write_text("\n".join(lines + ["L s1499 t1499"]) + "\n")
    assert main(["oracle", "soft", "-n", str(cat), "-t", str(cat)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_jobs_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys):
    main(["gen", "--leaves", "4", "--reticulations", "1", "--seed", "1",
          "-o", str(tmp_path / "i1")])
    capsys.readouterr()

    def no_workers(*args, **kwargs):
        raise AssertionError("no worker may start")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_workers)
    for jobs in ("0", "-2"):
        assert main(["solve", "--batch", str(tmp_path), "--jobs", jobs]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err


def test_batch_isolates_a_crashing_instance(tmp_path, monkeypatch, capsys):
    for seed in (1, 2, 3):
        main(["gen", "--leaves", "4", "--reticulations", "1",
              "--seed", str(seed), "-o", str(tmp_path / f"i{seed}")])
    capsys.readouterr()
    calls = []

    def flaky(inst, **kwargs):
        calls.append(inst)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return solve(inst, **kwargs)

    monkeypatch.setattr("stc.cli.solve", flaky)
    assert main(["solve", "--batch", str(tmp_path)]) == 66
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["i1", "i2", "i3"]
    assert out[1] == "i2 ERROR internal: RuntimeError: boom"
    assert out[0].split()[1] in ("YES", "NO")
    assert out[2].split()[1] in ("YES", "NO")


def test_batch_survives_a_dead_worker(tmp_path, monkeypatch, capsys):
    for seed in (1, 2, 3, 4):
        main(["gen", "--leaves", "4", "--reticulations", "1",
              "--seed", str(seed), "-o", str(tmp_path / f"i{seed}")])
    capsys.readouterr()
    load = stc.cli._load_network

    def dies_on_i2(path):
        if path.endswith("i2.network"):
            os._exit(3)  # the worker process ends without a word
        return load(path)

    monkeypatch.setattr("stc.cli._load_network", dies_on_i2)
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == 66
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["i1", "i2", "i3", "i4"]
    assert out[1] == "i2 ERROR internal: worker died"
    assert all(out[i].split()[1] in ("YES", "NO") for i in (0, 2, 3))


def test_captured_stdout_is_not_kept_alive():
    # A caller that captures each call's output, as an in-process benchmark
    # does, must get its buffers back.
    refs = []
    for seed in range(3):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gen", "--leaves", "4", "--seed", str(seed)]) == 0
        assert out.getvalue().startswith("network gen-")
        refs.append(weakref.ref(out))
        del out
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# -- the cyclic collector is paused for each command --------------------------


@pytest.fixture()
def collector_restored():
    """Sets the cyclic collector back to its state before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, files, monkeypatch, capsys,
                                                  collector_restored):
    bad = files["dir"] / "bad.network"
    bad.write_bytes(b"A r x\xff\n")
    net, yes, no = files["net_a"], files["tree_d"], files["tree_c"]
    cases = [
        (["--help"], 0),
        (["solve", "-n", net, "-t", yes], 0),
        (["solve", "-n", net, "-t", no], 1),
        (["solve", "-n", net], 64),
        (["solve", "-n", str(bad), "-t", yes], 65),
        (["solve", "-n", net, "-t", str(files["dir"] / "missing")], 66),
    ]
    (gc.enable if enabled else gc.disable)()
    for argv, code in cases:
        assert main(argv) == code, argv
        assert gc.isenabled() is enabled, argv

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("stc.cli.solve", crash)
    assert main(["solve", "-n", net, "-t", yes]) == 70
    assert gc.isenabled() is enabled


def test_commands_leave_no_cycle_for_the_collector(files, capsys, collector_restored):
    # What `main` allocates is freed by reference counting alone, so pausing
    # the collector for a command holds no memory past it.
    batch = files["dir"] / "batch"
    batch.mkdir()
    for name, network in (("i1", NET_A), ("i2", None)):
        if network is None:
            (batch / f"{name}.network").write_bytes(b"A r x\xff\n")
        else:
            (batch / f"{name}.network").write_text(network)
        (batch / f"{name}.tree").write_text(TREE_D)
    net, yes, no = files["net_a"], files["tree_d"], files["tree_c"]
    cases = [
        (["solve", "-n", net, "-t", yes], 0),
        (["solve", "-n", net, "-t", no], 1),
        (["solve", "-n", net, "-t", yes, "--witness"], 0),
        (["solve", "-n", yes, "-t", yes, "--witness"], 0),  # resolves a polytomy
        (["solve", "--batch", str(batch)], 66),
        (["solve", "-n", net], 64),
        (["frobnicate"], 64),
    ]
    gc.disable()
    for argv, code in cases:
        gc.collect()
        assert main(argv) == code, argv
        assert gc.collect() == 0, argv
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "i1 YES", f"i2 ERROR {batch / 'i2.network'}: byte offset 5: not UTF-8 (byte 0xff)"]


# -- fuzzing: every mutated document ends in a documented exit code ------------


def _mutate(text, kind, i, j, vertices, taxa):
    """`text` with one line dropped, an arc or label line added, the taxa
    of two label lines swapped, or a byte that is no UTF-8 inserted; `i` and
    `j` pick the lines and names, or the offset and the byte."""
    if kind == "byte":
        # a lone surrogate escape, written out as the byte 0xcd-0xff alone
        k = i % (len(text) + 1)
        return text[:k] + chr(0xdcff - j) + text[k:]
    lines = text.splitlines()
    if kind == "drop" and lines:
        del lines[i % len(lines)]
    elif kind == "arc":
        directive = "E" if lines and lines[-1].startswith("E ") else "A"
        u, v = vertices[i % len(vertices)], vertices[j % len(vertices)]
        lines.insert(i % (len(lines) + 1), f"{directive} {u} {v}")
    elif kind == "label":
        lines.append(f"L {vertices[i % len(vertices)]} {taxa[j % len(taxa)]}")
    elif kind == "swap":
        labeled = [k for k, line in enumerate(lines) if line.startswith("L ")]
        if labeled:
            a, b = labeled[i % len(labeled)], labeled[j % len(labeled)]
            (_, va, ta), (_, vb, tb) = lines[a].split(), lines[b].split()
            lines[a], lines[b] = f"L {va} {tb}", f"L {vb} {ta}"
    return "\n".join(lines) + "\n"


_FUZZ_COMMANDS = [
    ["solve", "-n", "N", "-t", "T"],
    ["solve", "-n", "N", "-t", "T", "--witness"],
    ["solve", "-n", "N", "-t", "T", "-x", "X"],
    ["solve", "-n", "N", "-t", "T", "-x", "X", "--witness"],
    ["reduce", "-n", "N", "-t", "T", "-o", "P"],
    ["reduce", "-n", "N", "-x", "X", "-o", "P"],
    ["extension", "validate", "-n", "N", "-x", "X"],
    ["extension", "width", "-n", "N", "-x", "X"],
    ["extension", "canonicalize", "-n", "N", "-x", "X"],
    ["extension", "default", "-n", "N"],
    ["oracle", "firm", "-n", "N", "-t", "T"],
    ["oracle", "soft", "-n", "N", "-t", "T"],
]

_mutations = st.lists(st.tuples(
    st.sampled_from(["N", "T", "X"]),
    st.sampled_from(["drop", "arc", "label", "swap", "byte"]),
    st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(params=st.builds(GeneratorParams, leaves=st.integers(2, 5),
                        reticulations=st.integers(0, 2),
                        polytomy_rate=st.sampled_from([0.0, 0.5]),
                        seed=st.integers(0, 10_000),
                        target_answer=st.sampled_from(["yes-biased", "unlabeled"])),
       mutations=_mutations)
def test_mutated_documents_end_in_a_documented_exit_code(fuzz_dir, params, mutations):
    inst = generate(params)
    docs = {"N": inst.network_doc, "T": inst.tree_doc, "X": inst.extension_doc}
    vertices = sorted({*inst.network.vertices, *inst.tree.vertices, "zz"})
    taxa = sorted({*inst.network.taxa, "tz"})
    for doc, kind, i, j in mutations:
        docs[doc] = _mutate(docs[doc], kind, i, j, vertices, taxa)
    where = {"P": str(fuzz_dir / "reduced")}
    for key, text in docs.items():
        where[key] = str(fuzz_dir / key)
        with open(where[key], "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
    for argv in _FUZZ_COMMANDS:
        argv = [where.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 64, 65, 66), (argv, docs, err.getvalue())


# Valid eNewick networks with hybrids, branch lengths and CR/LF breaks.
_ENEWICK_SEEDS = (
    "(((a:1.5,b:2)x,(c)#H1:0.3),(#H1,d));\n",
    "((a,(b)#H2)\r\n,(#H2:1e-3,c))root;\r\n",
    "((a:1,((b:2,c:0.5))#LGT1:2E+1)\r,(#LGT1,d):4);",
)

_edits = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                            st.integers(0, 60), st.sampled_from("(),;:#H1a.eE+- \t\r\n")),
                  min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(doc=st.sampled_from(_ENEWICK_SEEDS), edits=_edits)
def test_mutated_enewick_imports_end_in_a_documented_exit_code(fuzz_dir, doc, edits):
    for kind, i, char in edits:
        k = i % (len(doc) + 1)
        if kind == "insert":
            doc = doc[:k] + char + doc[k:]
        else:
            doc = doc[:k] + (char if kind == "replace" else "") + doc[k + 1:]
    path = fuzz_dir / "mutated.nwk"
    path.write_bytes(doc.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["import", "enewick", str(path)])
    assert code in (0, 65, 66), (doc, err.getvalue())
    if code:
        assert err.getvalue().startswith("error:"), (doc, err.getvalue())
        assert "Traceback" not in err.getvalue()
