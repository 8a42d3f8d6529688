"""Signature dynamic program deciding soft display on a reduced instance.

The program sweeps a canonical tree extension of the network bottom-up.
For each scan cut it keeps a table of signatures.  A signature is a map
sending each topmost arc of an embedded, downward-closed tree forest to the
network arc of the cut that its image path currently crosses; the map's
domain is the forest, given by its topmost arcs.  A signature is stored as
the sorted tuple of its (tree arc, network arc) pairs, each packed into one
int (`SolveResult.signature` decodes a key).  The instance is a
yes-instance iff the table at the child of the network root contains a
signature whose domain is the tree's root arc alone.

A network vertex of out-degree 3 or more is a soft polytomy: any binary
resolution of it may carry the embedding.  The sweep resolves it in place:
the tree arcs that a signature sends to its out-arcs merge tail by tail,
as they would at the nodes of a binary resolution (`_resolutions`), and
the witness is reported on the network with each polytomy it passes
through resolved by fresh vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Arc, Digraph, TreeIndex
from .errors import InputError, InternalError
from .reduction import AugmentedInstance


# -- eventual arc-disjointness and embedding checks --------------------------


def eventually_arc_disjoint(d: Digraph, p: tuple[str, ...], q: tuple[str, ...]) -> bool:
    """Whether two directed paths only share a common prefix of arcs.

    Recursively: arc-disjoint paths qualify, and so do paths whose first
    arcs coincide and whose remainders qualify.
    """
    _require_path(d, p)
    _require_path(d, q)
    return _only_a_common_prefix(p, q)


def _only_a_common_prefix(p: tuple[str, ...], q: tuple[str, ...]) -> bool:
    """`eventually_arc_disjoint` on two paths already known to be paths."""
    i = 0
    while (i + 1 < len(p) and i + 1 < len(q)
           and p[i] == q[i] and p[i + 1] == q[i + 1]):
        i += 1
    tail_p = set(zip(p[i:], p[i + 1:]))
    tail_q = set(zip(q[i:], q[i + 1:]))
    return not (tail_p & tail_q)


def _require_path(d: Digraph, p) -> None:
    if not p:
        raise InputError("empty path")
    for v in p:
        if v not in d:
            raise InputError(f"unknown vertex {v!r}")
    for (u, v) in zip(p, p[1:]):
        if not d.has_arc(u, v):
            raise InputError(f"not a path: missing arc ({u!r}, {v!r})")


def check_embedding(phi: dict[Arc, tuple[str, ...]], tree: Digraph,
                    network: Digraph) -> bool:
    """Verify the four soft-pseudo-embedding conditions of `phi`.

    `phi` maps each arc of a downward-closed subforest of the out-tree
    `tree` to a directed network path.  Checks: paths exist in the network,
    paths of sibling arcs start where the parent arc's path ends and are
    pairwise eventually arc-disjoint, paths of arcs with unrelated tails are
    fully arc-disjoint, and each leaf arc ends at the network leaf carrying
    the same taxon.

    Two paths that share no network arc meet both pair conditions, so only
    pairs sharing an arc are compared, each once.  The cost is linear in the
    total path length and the size of `tree`, plus the pairs that share an
    arc; valid embeddings share arcs only between siblings.
    """
    tree_arcs = set(tree.arcs)
    for a in phi:
        if a not in tree_arcs:
            raise InputError(f"embedded arc {a!r} is not a tree arc")
    for (x, y), path in phi.items():
        _require_path(network, path)
        for out in tree.out_arcs(y):
            if out not in phi:
                raise InputError(f"domain not downward closed: missing {out!r}")
    for (x, y), path in phi.items():
        taxon = tree.label_of(y)
        if taxon is not None:
            if network.label_of(path[-1]) != taxon:
                return False
        for out in tree.out_arcs(y):
            if phi[out][0] != path[-1]:
                return False
    users: dict[Arc, list[Arc]] = {}
    for a, path in phi.items():
        for net_arc in zip(path, path[1:]):
            users.setdefault(net_arc, []).append(a)
    index = TreeIndex(tree)
    compared: set[tuple[Arc, Arc]] = set()
    for sharing in users.values():
        for i, a1 in enumerate(sharing):
            for a2 in sharing[i + 1:]:
                # a1 == a2 when a path repeats an arc, in a cyclic network
                if a1 == a2 or (a1, a2) in compared:
                    continue
                compared.add((a1, a2))
                if a1[0] == a2[0]:
                    if not _only_a_common_prefix(phi[a1], phi[a2]):
                        return False
                elif not (index.in_subtree(a1[1], a2[0])
                          or index.in_subtree(a2[1], a1[0])):
                    return False  # unrelated tails, and the paths share an arc
    return True


# -- the dynamic program -----------------------------------------------------


@dataclass
class VertexStats:
    vertex: str
    cells_above: int
    cells_below: int


@dataclass
class SolveResult:
    instance: AugmentedInstance
    stats: list[VertexStats] = field(default_factory=list)
    tables: dict | None = None  # "above"/"below" -> vertex -> {signature: tag}
    accepting_key: tuple[int, ...] | None = None

    @property
    def displayed(self) -> bool:
        return self.accepting_key is not None

    @property
    def final_vertex(self) -> str:
        """The child of the network's fresh root, whose table above decides."""
        inst = self.instance
        return inst.network.children(inst.network_root)[0]

    def signature(self, key: tuple[int, ...]) -> tuple[tuple[Arc, Arc], ...]:
        """The sorted (tree arc, network arc) pairs of a table key."""
        t_arcs, n_arcs = self.instance.tree.arcs, self.instance.network.arcs
        shift, mask = _pair_bits(self.instance.network)
        return tuple((t_arcs[p >> shift], n_arcs[p & mask]) for p in key)


def _pair_bits(network: Digraph) -> tuple[int, int]:
    """The shift and the mask of the network arc's index in a packed pair."""
    shift = len(network.arcs).bit_length()
    return shift, (1 << shift) - 1


def _post_order(gamma: Digraph) -> list[str]:
    """The extension's vertices in post-order, children in sorted order."""
    out, stack = [], [gamma.root()]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(gamma.children(v))
    return out[::-1]


def _resolutions(bundle: list[int], shift: int, mask: int, t_tail: list[str],
                 t_fanout: dict[str, int], t_parent_pair: dict[str, int],
                 rho_t: str) -> list[tuple[tuple[int, ...], tuple]]:
    """What the pairs on the out-arcs of a soft polytomy v can become on
    its in-arc, each with a binary resolution of v that yields it.

    `bundle` holds the pairs of a signature on out-arcs of v.  A binary
    resolution of v is a binary tree rooted at v whose leaves are the
    occupied out-arcs; each inner node has one in-arc, and the extend/grow
    step applies there to the tree arcs on its two out-arcs.  The tree arcs
    on one out-arc share a tail, and only groups with the same tail y may
    meet at a node.  A group holding every out-arc of y can meet nothing
    else, so unless it is the last group it must grow into y's parent arc.
    Merging the groups tail by tail therefore decides the bundle: it
    resolves iff one group is left, and its outcomes are that group and,
    when it is complete, its grown form.  A plan is an out-arc id at a leaf
    and `(ids, grown, left, right)` at a node, `ids` being the tree arcs on
    its in-arc; `_replay` unfolds it.
    """
    groups: dict[int, list[int]] = {}
    for p in bundle:
        groups.setdefault(p & mask, []).append(p >> shift)
    b0, *rest = sorted(groups)
    # the lowest out-arc first, then the highest down
    stack = [(tuple(groups[b]), b) for b in (*rest, b0)]
    waiting: dict[str, tuple] = {}  # tail -> (ids, plan) of its group
    while stack:
        ids2, plan2 = stack.pop()
        y = t_tail[ids2[0]]
        if y not in waiting:
            waiting[y] = (ids2, plan2)
            continue
        ids1, plan1 = waiting.pop(y)
        ids = tuple(sorted(ids1 + ids2))
        if y != rho_t and len(ids) == t_fanout[y] and (stack or waiting):
            grown = (t_parent_pair[y] >> shift,)
            stack.append((grown, (grown, True, plan1, plan2)))
        else:
            waiting[y] = (ids, (ids, False, plan1, plan2))
    if len(waiting) != 1:
        return []
    ((y, (ids, plan)),) = waiting.items()
    if y == rho_t or len(ids) != t_fanout[y]:
        return [(ids, plan)]
    grown = (t_parent_pair[y] >> shift,)
    return [(ids, plan), (grown, (grown, True, *plan[2:]))]


def solve(inst: AugmentedInstance, *, keep_tables: bool = True) -> SolveResult:
    """Decide soft display on a reduced instance built by `preprocess`.

    With `keep_tables` the full signature tables and provenance tags are
    retained for witness reconstruction; without it, child tables are freed
    as soon as they have been combined, which bounds memory by the tables
    along one root-to-leaf slice.  Per-vertex stats are always collected.
    A vertex with one extension child `q` uses `q`'s above table as its
    below; with more, the below table joins their above tables.

    Arcs are numbered by their index in the sorted `arcs` of their graph, and
    a pair is the int `tree_index << shift | network_index`, so a signature is
    a sorted tuple of ints in the order of its pairs.  Tables keep insertion
    order.  Each tag records how its cell was made: its kind, then what
    `_replay` needs to unfold that step.

    At a vertex of out-degree 3 or more, a signature whose pairs use three
    or more of its out-arcs takes the outcomes of `_resolutions`: at most
    two, found by merging those pairs' tree arcs tail by tail.
    """
    n, t, gamma = inst.network, inst.tree, inst.extension.gamma
    rho_n, rho_t = inst.network_root, inst.tree_root
    if gamma.root() != rho_n:
        raise InternalError("extension root differs from the network root")
    t_leaf_of = t.leaf_by_taxon
    shift, mask = _pair_bits(n)
    tree_id = {a: i for i, a in enumerate(t.arcs)}
    t_tail = [x for x, _ in t.arcs]
    t_fanout = {y: t.out_degree(y) for y in t.vertices}
    t_parent_pair = {y: i << shift for (_, y), i in tree_id.items()}
    n_outs: dict[str, set[int]] = {}
    n_ins: dict[str, list[int]] = {}  # in sorted(parents) order, as arcs are
    for i, (u, v) in enumerate(n.arcs):
        n_outs.setdefault(u, set()).add(i)
        n_ins.setdefault(v, []).append(i)

    above: dict[str, dict] = {}
    below: dict[str, dict] = {}
    stats: list[VertexStats] = []

    for v in _post_order(gamma):
        if v == rho_n:
            continue
        qs = gamma.children(v)
        ins = n_ins[v]

        if not qs:
            taxon = n.label_of(v)
            if taxon is None or taxon not in t_leaf_of:
                raise InternalError(f"network leaf {v!r} has no matching tree leaf")
            tl = t_leaf_of[taxon]
            (tp,) = t.parents(tl)
            (a,) = ins
            above[v] = {(tree_id[tp, tl] << shift | a,): ("leaf",)}
            below[v] = {}
        else:
            if len(qs) > 1:
                seen: set[int] = set()
                for q in qs:
                    arcs_q = {p >> shift for k in above[q] for p in k}
                    if not seen.isdisjoint(arcs_q):
                        raise InternalError(
                            "sibling signatures share a tree arc; "
                            "the extension cannot be canonical")
                    seen |= arcs_q
            # The children fold in one at a time, each adding its (child,
            # key) to the tag.  No above table holds a "join" tag, so one
            # marks a cell that an earlier fold made.
            below_v = above[qs[0]]
            for q in qs[1:]:
                keys2 = list(above[q])
                joined = {}
                for k1, tag1 in below_v.items():
                    parts = tag1[1:] if tag1[0] == "join" else (qs[0], k1)
                    for k2 in keys2:
                        joined.setdefault(tuple(sorted(k1 + k2)), ("join", *parts, q, k2))
                below_v = joined

            outs = n_outs.get(v, ())
            polytomy = len(outs) > 2
            above_v: dict = {}
            for key in below_v:
                bundle = [p for p in key if p & mask in outs]
                if not bundle:
                    above_v.setdefault(key, ("up", v))
                    continue
                resolve = polytomy and len({p & mask for p in bundle}) > 2
                if not resolve:
                    if len(bundle) > 1 and len({t_tail[p >> shift] for p in bundle}) > 1:
                        continue
                    # Extend: the bundle's arcs all cross one in-arc of v now.
                    for a in ins:
                        extended = tuple([p >> shift << shift | a if p & mask in outs
                                          else p for p in key])
                        above_v.setdefault(extended, ("extend", v, key, a))
                    y = t_tail[bundle[0] >> shift]
                    if y == rho_t or len(bundle) != t_fanout[y]:
                        continue
                # Grow, or resolve: the bundle leaves the key.  A grow puts
                # y's parent arc in its place, the bundle being every out-arc
                # of y; a resolution puts each outcome of `_resolutions` there.
                rest = [p for p in key if p & mask not in outs]
                if not resolve:
                    parent = t_parent_pair[y]
                    for a in ins:
                        grown = tuple(sorted(rest + [parent | a]))
                        above_v.setdefault(grown, ("grow", v, key, parent | a))
                    continue
                for ids, plan in _resolutions(bundle, shift, mask, t_tail, t_fanout,
                                              t_parent_pair, rho_t):
                    for a in ins:
                        new = tuple(sorted(rest + [i << shift | a for i in ids]))
                        above_v.setdefault(new, ("resolve", v, key, a, plan))
            above[v] = above_v
            below[v] = below_v

        stats.append(VertexStats(
            vertex=v, cells_above=len(above[v]), cells_below=len(below[v])))

        if not keep_tables:
            for q in qs:
                above.pop(q, None)
                below.pop(q, None)

    final = n.children(rho_n)[0]
    top = tree_id[rho_t, t.children(rho_t)[0]]
    accepting = [k for k in above.get(final, {}) if len(k) == 1 and k[0] >> shift == top]
    return SolveResult(
        instance=inst,
        stats=stats,
        tables={"above": above, "below": below} if keep_tables else None,
        accepting_key=min(accepting) if accepting else None,
    )


# -- witness reconstruction --------------------------------------------------


def reconstruct_witness(result: SolveResult) -> tuple[Digraph, dict[Arc, tuple[str, ...]]]:
    """Replay provenance tags of an accepting run into an embedding.

    Returns the network the witness lives on and the embedding, which maps
    every arc of the reduced tree to a directed path in that network.  The
    network is the reduced one, with each polytomy the run resolved replaced
    by the resolution it chose (fresh vertices, so every path keeps at least
    one arc).  `check_embedding` has verified that the embedding meets the
    soft-pseudo-embedding conditions there.
    """
    if not result.displayed:
        raise InputError("no witness: the instance is a no-instance")
    if result.tables is None:
        raise InputError("no witness: the solver ran in decision-only mode")
    inst = result.instance
    network, phi = _replay(result)
    top_arc = (inst.tree_root, inst.tree.children(inst.tree_root)[0])
    if phi[top_arc][0] != inst.network_root:
        raise InternalError("witness does not start at the network root")
    if not check_embedding(phi, inst.tree, network):
        raise InternalError("reconstructed embedding fails verification")
    return network, phi


def _replay(result: SolveResult) -> tuple[Digraph, dict[Arc, tuple[str, ...]]]:
    """Unfold the provenance tags under the accepting cell into paths.

    The walk runs top-down with an explicit stack, so its depth is not bound
    by the interpreter's.  The tags are `("leaf",)`, `("up", v)`,
    `("extend", v, key, a)`, `("grow", v, key, pair)`,
    `("resolve", v, key, a, plan)` and `("join", q1, k1, q2, k2, ...)`: `v`
    is the vertex a tag was made at, since one table may be both above a
    vertex and below its parent, `key` the cell of `below[v]` it was made
    from, `a` an in-arc of `v`, `pair` the packed pair it grew, and each
    `(q, k)` of a join a cell of `above[q]`.  An "extend" tag prepends the
    tail of its in-arc to the paths of the tree arcs that its inner
    signature maps to out-arcs of its vertex, and it is met before the
    "leaf" or "grow" tag that starts those paths, so every path is built by
    appending.  A "resolve" tag does the same at each node of its plan,
    top-down, with a fresh vertex for each node below its own vertex; each
    out-arc it resolves then has that out-arc's node as its tail for the
    tags below.  Packed ids are decoded here.
    """
    above, below = result.tables["above"], result.tables["below"]
    network = result.instance.network
    t_arcs, n_arcs = result.instance.tree.arcs, network.arcs
    shift, mask = _pair_bits(network)
    paths: dict[Arc, list[str]] = {}
    started: set[Arc] = set()
    overlap: set[Arc] = set()
    tail: dict[int, str] = {}  # network arc id -> its tail in the resolution
    resolution: list[Arc] = []
    fresh = int(network.fresh_ids(1)[0][1:])

    def start(arc, u, v):
        if arc in started:
            overlap.add(arc)
        started.add(arc)
        paths.setdefault(arc, []).extend((u, v))

    def tail_of(b):
        return tail.get(b) or n_arcs[b][0]

    stack = [(above[result.final_vertex], result.accepting_key)]
    while stack:
        table, key = stack.pop()
        tag = table[key]
        if tag[0] == "leaf":
            (p,) = key
            start(t_arcs[p >> shift], tail_of(p & mask), n_arcs[p & mask][1])
        elif tag[0] == "up":
            _, v = tag
            stack.append((below[v], key))
        elif tag[0] == "extend":
            _, v, inner, a = tag
            u = tail_of(a)
            for p in inner:
                if n_arcs[p & mask][0] == v:
                    paths.setdefault(t_arcs[p >> shift], []).append(u)
            stack.append((below[v], inner))
        elif tag[0] == "grow":
            # The bundled arcs stay embedded; they merely stop being topmost.
            _, v, inner, p = tag
            start(t_arcs[p >> shift], tail_of(p & mask), v)
            stack.append((below[v], inner))
        elif tag[0] == "resolve":
            _, v, inner, a, plan = tag
            nodes = [(plan, tail_of(a), v)]
            while nodes:
                (ids, grown, *parts), u, w = nodes.pop()
                if grown:
                    start(t_arcs[ids[0]], u, w)
                else:
                    for i in ids:
                        paths.setdefault(t_arcs[i], []).append(u)
                for part in parts:
                    if isinstance(part, int):
                        tail[part] = w
                        resolution.append((w, n_arcs[part][1]))
                    else:
                        resolution.append((w, f"g{fresh}"))
                        nodes.append((part, w, f"g{fresh}"))
                        fresh += 1
            stack.append((below[v], inner))
        elif tag[0] == "join":
            parts = tag[1:]
            for i in range(len(parts) - 2, -1, -2):
                stack.append((above[parts[i]], parts[i + 1]))
        else:
            raise InternalError(f"unknown provenance tag {tag!r}")
    if overlap:
        raise InternalError(f"joined embeddings overlap on {sorted(overlap)}")
    if resolution:
        kept = [arc for b, arc in enumerate(n_arcs) if b not in tail]
        network = Digraph(kept + resolution, network.labels)
    return network, {a: tuple(path) for a, path in paths.items()}
