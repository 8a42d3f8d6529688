"""End-to-end CLI behaviour including exit codes and witness output."""

import hashlib
import os
import subprocess
import sys

import pytest

import stc
from stc import (
    GeneratorParams,
    check_embedding,
    generate,
    parse_edgelist,
    prune_to_leafset,
    serialize_edgelist,
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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A a\n")
    good = tmp_path / "good.txt"
    good.write_text(TREE_D)
    assert main(["solve", "-n", str(bad), "-t", str(good)]) == 65
    assert "line 1" in capsys.readouterr().err


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


# sha256 of PREFIX.network, PREFIX.extension and stdout of `stc reduce`.
# Seed 1 stretches a degree-4 vertex, all three in-split, and seed 4 runs
# against a tree without its last three taxa, so it starts with a prune.
_REDUCE_GOLDEN = {
    (1, 0): ("d3896ccb7c2b337418382a142fa0d9ab7ba85f7ce15a54e0aab9b183ad352e09",
             "93dca6b50128dea2e60fbb4a769cf3a52a231de33bd7130d968f518751b26fa7",
             "2c626847f1d516212c1e5cc4d73e00925736416c621c86e6384ce47b249c732b"),
    (3, 0): ("c5234090da5c8b85465f87f0e817c5e368cbc62f2d0de61a6c34b503a47cfff6",
             "84b13915caddcb6dbfe05b43d4a6e7886fd8edd087ee38019f8a39151abd2f5e",
             "9aff12518a3f65e441863c4a9ac51b3ba341ab7b48454c6a7b0a96ad411dd5db"),
    (4, 3): ("9f44bf98e5e78a0ece04ab170e21b9ecbc36b084776db0ea77ded15ed440dbf1",
             "7fda5cc9de8e701687e8f6b59c0445c1a7e14ad52be643e0853f5c78aed202e2",
             "7ac0838c36add220d405774c3d84ab9b39d19d939182d120e8d85cc7a7a732e6"),
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
    assert "stretch" in kinds and "insplit" in kinds
    assert ("prune" in kinds) == bool(dropped)
    outputs = ((tmp_path / "out.network").read_text(),
               (tmp_path / "out.extension").read_text(), stdout)
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in outputs) == _REDUCE_GOLDEN[seed, dropped]


# sha256 of `stc solve --witness` stdout on two of the instances above.  The
# witness is the run that the solver's tables record first, in insertion order.
_WITNESS_GOLDEN = {
    (1, 0): "ca96a4db180001828d6b897d4d187d42b2e347c31d02aac694041a9b46435783",
    (3, 0): "2c4900184e94e171639767da8498ce9334995b2a066e8c23b98e6c4e8c619140",
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
    capsys.readouterr()
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
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
