"""Signature dynamic program deciding soft display on a reduced instance.

The program sweeps a canonical tree extension of the binary network bottom-up.
For each scan cut it keeps a table of signatures.  A signature is a map
sending each topmost arc of an embedded, downward-closed tree forest to the
network arc of the cut that its image path currently crosses; the map's
domain is the forest, given by its topmost arcs.  A signature is stored as
the sorted tuple of its (tree arc, network arc) pairs, each packed into one
int (`SolveResult.signature` decodes a key).  The instance is a
yes-instance iff the table at the child of the network root contains a
signature whose domain is the tree's root arc alone.
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


@dataclass(frozen=True)
class SoftEmbedding:
    """A map from tree arcs to network paths witnessing soft display."""

    paths: dict[Arc, tuple[str, ...]]

    def endpoint(self, y: str) -> str:
        """The network vertex at which the paths into tree vertex `y` end."""
        for (x, h), path in self.paths.items():
            if h == y:
                return path[-1]
        raise InputError(f"tree vertex {y!r} heads no mapped arc")


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
    cut_above: int
    cut_below: int
    cells_above: int
    cells_below: int
    max_bundle: int  # largest preimage of a single network arc in any signature


@dataclass
class SolveResult:
    displayed: bool
    instance: AugmentedInstance
    stats: list[VertexStats] = field(default_factory=list)
    tables: dict | None = None  # "above"/"below" -> vertex -> {signature: tag}
    accepting_key: tuple[int, ...] | None = None
    final_vertex: str | None = None

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
        stack.extend(sorted(gamma.children(v)))
    return out[::-1]


def solve(inst: AugmentedInstance, *, keep_tables: bool = True) -> SolveResult:
    """Decide soft display on a reduced instance built by `preprocess`.

    With `keep_tables` the full signature tables and provenance tags are
    retained for witness reconstruction; without it, child tables are freed
    as soon as they have been combined, which bounds memory by the tables
    along one root-to-leaf slice.  Per-vertex stats are always collected.
    A vertex with one extension child `q` uses `q`'s above table as its below.

    Arcs are numbered by their index in the sorted `arcs` of their graph, and
    a pair is the int `tree_index << shift | network_index`, so a signature is
    a sorted tuple of ints in the order of its pairs.  Tables keep insertion
    order.  Each tag holds its kind, then its signature's largest preimage of
    a single network arc, which the steps below carry from cell to cell.
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
    bundle_above: dict[str, int] = {}  # the largest multiplicity in above[v]
    stats: list[VertexStats] = []
    cuts = inst.extension.cut_sizes()

    for v in _post_order(gamma):
        if v == rho_n:
            continue
        qs = sorted(gamma.children(v))
        ins = n_ins[v]

        if not qs:
            taxon = n.label_of(v)
            if taxon is None or taxon not in t_leaf_of:
                raise InternalError(f"network leaf {v!r} has no matching tree leaf")
            tl = t_leaf_of[taxon]
            (tp,) = t.parents(tl)
            (a,) = ins
            above[v] = {(tree_id[tp, tl] << shift | a,): ("leaf", 1)}
            below[v] = {}
            bundle_above[v] = 1
            bundle_below = 0
        else:
            if len(qs) == 1:
                below_v = above[qs[0]]
                bundle_below = bundle_above[qs[0]]
            elif len(qs) == 2:
                q1, q2 = qs
                arcs1 = {p >> shift for k1 in above[q1] for p in k1}
                if any(p >> shift in arcs1 for k2 in above[q2] for p in k2):
                    raise InternalError(
                        "sibling signatures share a tree arc; "
                        "the extension cannot be canonical")
                # The cut arcs above q1 and above q2 head into disjoint
                # subtrees of gamma, so no network arc bundles arcs of both,
                # and a joined signature's largest multiplicity is the
                # larger of its halves'.
                cells2 = [(k2, tag2[1]) for k2, tag2 in above[q2].items()]
                below_v = {}
                for k1, tag1 in above[q1].items():
                    m1 = tag1[1]
                    for k2, m2 in cells2:
                        below_v.setdefault(tuple(sorted(k1 + k2)), (
                            "join", m1 if m1 > m2 else m2, q1, k1, q2, k2))
                bundle_below = (max(bundle_above[q1], bundle_above[q2])
                                if below_v else 0)
            else:
                raise InternalError(
                    "extension vertex with more than two children over a binary host")

            outs = n_outs.get(v, ())
            above_v: dict = {}
            for key, tag in below_v.items():
                m = tag[1]
                bundle = [p for p in key if p & mask in outs]
                if not bundle:
                    above_v.setdefault(key, ("up", m, v))
                    continue
                if len(bundle) > 1 and len({t_tail[p >> shift] for p in bundle}) > 1:
                    continue
                # Extend: the bundle's arcs all cross one in-arc of v now.
                extended_m = m if m > len(bundle) else len(bundle)
                for a in ins:
                    extended = tuple([p >> shift << shift | a if p & mask in outs
                                      else p for p in key])
                    above_v.setdefault(extended, ("extend", extended_m, v, key, a))
                y = t_tail[bundle[0] >> shift]
                if y != rho_t and len(bundle) == t_fanout[y]:
                    # Grow: the bundle is every out-arc of y, so y's parent
                    # arc replaces it; the bundle's count leaves the key.
                    rest, counts = [], {}
                    for p in key:
                        b = p & mask
                        if b not in outs:
                            rest.append(p)
                            counts[b] = counts.get(b, 0) + 1
                    grown_m = max(counts.values(), default=1)
                    parent = t_parent_pair[y]
                    for a in ins:
                        grown = tuple(sorted(rest + [parent | a]))
                        above_v.setdefault(grown, ("grow", grown_m, v, key, parent | a))
            above[v] = above_v
            below[v] = below_v
            bundle_above[v] = max((tag[1] for tag in above_v.values()), default=0)

        stats.append(VertexStats(
            vertex=v,
            cut_above=cuts[v][0],
            cut_below=cuts[v][1],
            cells_above=len(above[v]),
            cells_below=len(below[v]),
            max_bundle=max(bundle_above[v], bundle_below),
        ))

        if not keep_tables:
            for q in qs:
                above.pop(q, None)
                below.pop(q, None)

    final = n.children(rho_n)[0]
    top = tree_id[rho_t, t.children(rho_t)[0]]
    accepting = [k for k in above.get(final, {}) if len(k) == 1 and k[0] >> shift == top]
    return SolveResult(
        displayed=bool(accepting),
        instance=inst,
        stats=stats,
        tables={"above": above, "below": below} if keep_tables else None,
        accepting_key=min(accepting) if accepting else None,
        final_vertex=final,
    )


# -- witness reconstruction --------------------------------------------------


def reconstruct_witness(result: SolveResult) -> SoftEmbedding:
    """Replay provenance tags of an accepting run into an embedding.

    The embedding maps every arc of the reduced tree to a directed path in
    the reduced network and satisfies the soft-pseudo-embedding conditions.
    """
    if not result.displayed:
        raise InputError("no witness: the instance is a no-instance")
    if result.tables is None:
        raise InputError("no witness: the solver ran in decision-only mode")
    inst = result.instance
    phi = _replay(result)
    top_arc = (inst.tree_root, inst.tree.children(inst.tree_root)[0])
    if phi[top_arc][0] != inst.network_root:
        raise InternalError("witness does not start at the network root")
    if not check_embedding(phi, inst.tree, inst.network):
        raise InternalError("reconstructed embedding fails verification")
    return SoftEmbedding(phi)


def _replay(result: SolveResult) -> dict[Arc, tuple[str, ...]]:
    """Unfold the provenance tags under the accepting cell into paths.

    The walk runs top-down with an explicit stack, so its depth is not bound
    by the interpreter's.  The "up", "extend" and "grow" tags name the vertex
    they were made at, since one table may be both above a vertex and below
    its parent.  An "extend" tag prepends the tail of its in-arc to the paths
    of the tree arcs that its inner signature maps to out-arcs of its vertex,
    and it is met before the "leaf" or "grow" tag that starts those paths,
    so every path is built by appending.  Packed ids are decoded here.
    """
    above, below = result.tables["above"], result.tables["below"]
    t_arcs, n_arcs = result.instance.tree.arcs, result.instance.network.arcs
    shift, mask = _pair_bits(result.instance.network)
    paths: dict[Arc, list[str]] = {}
    started: set[Arc] = set()
    overlap: set[Arc] = set()

    def start(p):
        arc = t_arcs[p >> shift]
        if arc in started:
            overlap.add(arc)
        started.add(arc)
        paths.setdefault(arc, []).extend(n_arcs[p & mask])

    stack = [(above[result.final_vertex], result.accepting_key)]
    while stack:
        table, key = stack.pop()
        tag = table[key]
        if tag[0] == "leaf":
            (p,) = key
            start(p)
        elif tag[0] == "up":
            _, _, v = tag
            stack.append((below[v], key))
        elif tag[0] == "extend":
            _, _, v, inner, a = tag
            u = n_arcs[a][0]
            for p in inner:
                if n_arcs[p & mask][0] == v:
                    paths.setdefault(t_arcs[p >> shift], []).append(u)
            stack.append((below[v], inner))
        elif tag[0] == "grow":
            # The bundled arcs stay embedded; they merely stop being topmost.
            _, _, v, inner, p = tag
            start(p)
            stack.append((below[v], inner))
        elif tag[0] == "join":
            _, _, q1, k1, q2, k2 = tag
            stack += [(above[q2], k2), (above[q1], k1)]
        else:
            raise InternalError(f"unknown provenance tag {tag!r}")
    if overlap:
        raise InternalError(f"joined embeddings overlap on {sorted(overlap)}")
    return {a: tuple(path) for a, path in paths.items()}
