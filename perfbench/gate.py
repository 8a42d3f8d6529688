"""The known-answer gate: checks each CLI call's outcome against its reference.

Written without `stc` so that a defect in the program's own checker cannot
hide a wrong witness.  Inputs are the edge-list texts the call read and the
text it printed.
"""

from __future__ import annotations


def parse_edges(text):
    """Arcs and labels of an edge-list document (`A u v` / `L v taxon`)."""
    arcs, labels = [], {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "A" and len(toks) == 3:
            arcs.append((toks[1], toks[2]))
        elif toks[0] == "L" and len(toks) == 3:
            labels[toks[1]] = toks[2]
    return arcs, labels


def check_witness(tree_text, output):
    """Problems with a `stc solve --witness` output; empty when it is sound.

    The reduced tree is the input tree with a fresh degree-1 root.  Each of
    its arcs needs exactly one `EMBED x y : path` line; each path must be a
    path of the printed `REDUCED-INSTANCE` network; each child path starts
    where its parent's path ends; each leaf arc ends at the network leaf
    with the same taxon; and the root arc starts at the network root.
    """
    lines = output.splitlines()
    if not lines or lines[0] != "YES":
        return ["first line is not YES"]
    if len(lines) < 2 or lines[1] != "REDUCED-INSTANCE":
        return ["no REDUCED-INSTANCE preamble"]
    net_lines, phi, problems = [], {}, []
    for line in lines[2:]:
        if line.startswith("EMBED "):
            head, _, path = line[len("EMBED "):].partition(" : ")
            arc = tuple(head.split())
            if len(arc) != 2 or arc in phi:
                problems.append(f"bad or repeated EMBED line {line!r}")
            phi[arc] = tuple(path.split())
        else:
            net_lines.append(line)
    net_arcs, net_labels = parse_edges("\n".join(net_lines))
    net_arcset = set(net_arcs)
    tree_arcs, tree_labels = parse_edges(tree_text)
    tree_vertices = {v for a in tree_arcs for v in a}
    tree_root = ({u for u, _ in tree_arcs} - {v for _, v in tree_arcs}).pop()
    root_arcs = [a for a in phi if a[1] == tree_root and a[0] not in tree_vertices]
    if len(root_arcs) != 1:
        return problems + ["no single EMBED line for the added tree root arc"]
    want = set(tree_arcs) | set(root_arcs)
    if set(phi) != want:
        missing = sorted(want - set(phi))[:3]
        extra = sorted(set(phi) - want)[:3]
        problems.append(f"EMBED arcs differ: missing {missing}, extra {extra}")
        return problems
    children = {}
    for (x, y) in want:
        children.setdefault(x, []).append((x, y))
    net_root = {u for u, _ in net_arcs} - {v for _, v in net_arcs}
    for (x, y), path in phi.items():
        if len(path) < 2:
            problems.append(f"path of {(x, y)} has no arc")
            continue
        for step in zip(path, path[1:]):
            if step not in net_arcset:
                problems.append(f"path of {(x, y)} uses non-arc {step}")
                break
        for out in children.get(y, ()):
            if phi[out] and phi[out][0] != path[-1]:
                problems.append(f"path of {out} does not start where {(x, y)} ends")
        taxon = tree_labels.get(y)
        if taxon is not None and net_labels.get(path[-1]) != taxon:
            problems.append(f"leaf arc {(x, y)} ends off the leaf of {taxon}")
    if len(net_root) != 1 or phi[root_arcs[0]][:1] != tuple(net_root):
        problems.append("root arc does not start at the network root")
    return problems


def check_batch(output, verdicts):
    """Names whose `NAME VERDICT` line is missing or differs from the reference."""
    got = {}
    for line in output.splitlines():
        name, _, verdict = line.partition(" ")
        got[name] = verdict
    return sorted(name for name, want in verdicts.items() if got.get(name) != want)
