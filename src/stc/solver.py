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

from collections import namedtuple

from .digraph import Arc, Digraph, TreeIndex, _cached, _require_out_tree
from .errors import InputError, InternalError
from .reduction import AugmentedInstance, _Record


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

    The checks read the graphs' adjacency and label maps directly.  The
    keys are tested first to be tree arcs; then one pass over `phi` tests
    each path against the network's child map and each domain for
    downward closure, and indexes each network arc by its first user, the
    tree arc whose path uses it first, listing the users only of arcs that
    a second path uses too; a second pass tests leaf taxa and chaining.
    So malformed input raises `InputError`, naming the first fault in that
    order, before any condition is judged; after the second pass, a `tree`
    that is not an out-tree is refused, as `TreeIndex(tree)` refuses it.
    Two paths that share no network arc meet both pair conditions, so only
    pairs sharing an arc are compared, each once.  A valid embedding
    shares arcs only between siblings, so the pre-order index of `tree`
    that tells related tails from unrelated ones is built only when a
    pair with different tails shares an arc.  The cost is linear in the
    total path length, plus the pairs that share an arc, plus the size of
    `tree` when such a pair exists or its acyclicity is not yet known.
    """
    tree_arcs = set(tree.arcs)
    if not tree_arcs.issuperset(phi):
        a = next(a for a in phi if a not in tree_arcs)
        raise InputError(f"embedded arc {a!r} is not a tree arc")
    t_children, n_children = tree._children, network._children
    first: dict[Arc, Arc] = {}
    users: dict[Arc, list[Arc]] = {}  # of the arcs that a second path uses
    for a, path in phi.items():
        if not path or path[0] not in n_children:
            _require_path(network, path)  # raises, naming the fault
        for net_arc in zip(path, path[1:]):
            if net_arc[1] not in n_children[net_arc[0]]:
                _require_path(network, path)  # raises, naming the first fault
            user = first.setdefault(net_arc, a)
            if user != a:
                users.setdefault(net_arc, [user]).append(a)
        y = a[1]
        for c in t_children[y]:
            if (y, c) not in phi:
                raise InputError(f"domain not downward closed: missing {(y, c)!r}")
    t_labels, n_labels = tree._labels, network._labels
    for (x, y), path in phi.items():
        end = path[-1]
        taxon = t_labels.get(y)
        if taxon is not None and n_labels.get(end) != taxon:
            return False
        for c in t_children[y]:
            if phi[y, c][0] != end:
                return False
    _require_out_tree(tree)
    index = None
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
                else:
                    if index is None:
                        index = TreeIndex(tree)
                    if not (index.in_subtree(a1[1], a2[0])
                            or index.in_subtree(a2[1], a1[0])):
                        return False  # unrelated tails, and the paths share an arc
    return True


# -- the dynamic program -----------------------------------------------------


class VertexStats(namedtuple("VertexStats", "vertex cells_above cells_below")):
    """The table sizes just above and just below one swept vertex."""
    __slots__ = ()


class SolveResult(_Record):
    """What `solve` found: the answer (`accepting_key`), the tables a
    witness is replayed from, and `stats`, one `VertexStats` per swept
    vertex.  `solve` keeps the sweep's `(vertex, above, below)` triples,
    and `stats` is built from them when first read: a decision reads no
    stats, so it builds none."""
    _fields = ("instance", "stats", "tables", "accepting_key")

    def __init__(self, instance: AugmentedInstance,
                 stats: list[VertexStats] | None = None,
                 tables: dict | None = None,
                 accepting_key: tuple[int, ...] | None = None):
        self.instance = instance
        self._sizes = ()
        if stats is not None:
            self.stats = stats
        self.tables = tables  # "above"/"below" -> vertex -> {signature: tag}
        self.accepting_key = accepting_key

    @_cached
    def stats(self) -> list[VertexStats]:
        return list(map(VertexStats._make, self._sizes))

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
    along one root-to-leaf slice.  The sweep visits the extension's vertices
    in the reverse of its pre-order index (`TreeIndex.order`), children
    first, and the per-vertex table sizes are kept in that order, for
    `SolveResult.stats` to build its records from when read.  A vertex with
    one extension child `q` uses `q`'s above table as its below; with more,
    the below table is the plain product of their above tables, each key the
    union of one key of each.  So every table above an empty one is empty,
    up to the final one: the sweep stops at the first vertex whose above
    table is empty, with the answer NO, and `stats` and `tables` run up to
    and including that vertex.

    The product needs no check that sibling tables share no tree arc: they
    never do, for any valid extension, canonical or not.  A tree arc enters
    a table either as a leaf arc, at the network leaf that carries its
    taxon, or by a grow (or a resolution's grown outcome) from a bundle that
    holds every child arc of its head.  So every tree arc in a table of `q`
    has the network leaves of all its taxa in `q`'s extension subtree.
    Sibling subtrees are disjoint, and each taxon labels one network leaf.

    Arcs are numbered by their index in the sorted `arcs` of their graph, and
    a pair is the int `tree_index << shift | network_index`, so a signature is
    a sorted tuple of ints in the order of its pairs.  Tables keep insertion
    order.  A tag records only how a step changed its cell's key: its kind,
    then what `_replay` needs to unfold that step.  A key that passes a
    vertex unchanged keeps its tag, and the cells of a join share one.

    At a vertex of out-degree 3 or more, a signature whose pairs use three
    or more of its out-arcs takes the outcomes of `_resolutions`: at most
    two, found by merging those pairs' tree arcs tail by tail.
    """
    n, t, gamma = inst.network, inst.tree, inst.extension.gamma
    rho_n, rho_t = inst.network_root, inst.tree_root
    # The sweep skips `order[0]`, the extension's root: it has no host
    # parent, as every host arc runs down the extension, so it is the one
    # root of the network, which the final vertex below reads.
    order = inst.extension._valid_index().order
    t_leaf_of = t.leaf_by_taxon
    # The loop reads the maps directly: every vertex it meets is known.
    gamma_children, n_labels, t_parents = gamma._children, n._labels, t._parents
    shift, mask = _pair_bits(n)
    tree_id = {a: i for i, a in enumerate(t.arcs)}
    t_tail = [x for x, _ in t.arcs]
    t_fanout = {y: len(cs) for y, cs in t._children.items()}
    t_parent_pair = {y: i << shift for (_, y), i in tree_id.items()}
    n_outs: dict[str, set[int]] = {}
    n_ins: dict[str, list[int]] = {}  # in sorted(parents) order, as arcs are
    for i, (u, v) in enumerate(n.arcs):
        n_outs.setdefault(u, set()).add(i)
        n_ins.setdefault(v, []).append(i)

    above: dict[str, dict] = {}
    below: dict[str, dict] = {}
    sizes: list[tuple[str, int, int]] = []

    for v in reversed(order[1:]):
        qs = gamma_children[v]
        ins = n_ins[v]

        if not qs:
            taxon = n_labels.get(v)
            if taxon is None or taxon not in t_leaf_of:
                raise InternalError(f"network leaf {v!r} has no matching tree leaf")
            tl = t_leaf_of[taxon]
            (tp,) = t_parents[tl]
            (a,) = ins
            above_v = {(tree_id[tp, tl] << shift | a,): ("leaf",)}
            below_v = {}
        else:
            below_v = above[qs[0]]
            if len(qs) > 1:
                # The joined cells share one tag: `_replay` splits a key by subtree.
                joined = ("join", v)
                for q in qs[1:]:
                    below_v = dict.fromkeys(
                        (tuple(sorted(k1 + k2)) for k1 in below_v for k2 in above[q]),
                        joined)

            outs = n_outs.get(v, ())
            polytomy = len(outs) > 2
            above_v = {}
            for key, tag in below_v.items():
                # The bundle: the pairs on out-arcs of v.
                bundle, rest = [], []
                for p in key:
                    if p & mask in outs:
                        bundle.append(p)
                    else:
                        rest.append(p)
                if not bundle:
                    above_v.setdefault(key, tag)
                    continue
                if polytomy and len({p & mask for p in bundle}) > 2:
                    # Resolve: each outcome of `_resolutions` takes the
                    # bundle's place.
                    for ids, plan in _resolutions(bundle, shift, mask, t_tail, t_fanout,
                                                  t_parent_pair, rho_t):
                        for a in ins:
                            new = tuple(sorted(rest + [i << shift | a for i in ids]))
                            above_v.setdefault(new, ("resolve", v, key, a, plan))
                    continue
                # Tree arcs are numbered in sorted order, so the tails along
                # a key are sorted: the bundle has one tail iff its ends do.
                y = t_tail[bundle[0] >> shift]
                if t_tail[bundle[-1] >> shift] != y:
                    continue
                # Extend: the bundle's arcs all cross one in-arc of v now.
                for a in ins:
                    extended = tuple([p >> shift << shift | a if p & mask in outs
                                      else p for p in key])
                    above_v.setdefault(extended, ("extend", v, key, a))
                if y == rho_t or len(bundle) != t_fanout[y]:
                    continue
                # Grow: y's parent arc takes the place of the bundle, which
                # holds every out-arc of y.
                parent = t_parent_pair[y]
                for a in ins:
                    grown = tuple(sorted(rest + [parent | a]))
                    above_v.setdefault(grown, ("grow", v, key, parent | a))

        above[v] = above_v
        sizes.append((v, len(above_v), len(below_v)))
        if keep_tables:
            below[v] = below_v
        else:
            for q in qs:
                del above[q]
        if not above_v:
            break   # so is every table above it, up to the final one: NO

    # The one key that can accept: the tree's root arc on the final vertex's in-arc.
    final = n.children(rho_n)[0]
    (a,) = n_ins[final]
    accepting = (tree_id[rho_t, t.children(rho_t)[0]] << shift | a,)
    result = SolveResult(
        instance=inst,
        tables={"above": above, "below": below} if keep_tables else None,
        accepting_key=accepting if accepting in above.get(final, ()) else None,
    )
    result._sizes = sizes
    return result


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
    by the interpreter's.  The tags are `("leaf",)`,
    `("extend", v, key, a)`, `("grow", v, key, pair)`,
    `("resolve", v, key, a, plan)` and `("join", v)`: `v` is the vertex a
    tag was made at, since a tag passes up with an unchanged key, `key` the
    cell of `below[v]` it was made from, `a` an in-arc of `v`, and `pair`
    the packed pair it grew.  A joined key is split exactly: an arc has one
    head, so the pairs whose network arc enters the subtree of a child `q`
    of `v` are a key of `above[q]`: those whose head's pre-order number
    lies in `q`'s range.  An "extend" tag prepends the tail of its in-arc
    to the paths of the tree arcs that its inner signature maps to
    out-arcs of its vertex, and it is met before the "leaf" or "grow" tag
    that starts those paths, so every path is built by appending.  A
    "resolve" tag does the same at each node of its plan, top-down, with a
    fresh vertex for each node below its own vertex; each out-arc it
    resolves then has that out-arc's node as its tail for the tags below.
    The fresh ids are the network's `fresh_names()`, which finds its start
    by bisecting to the ids that begin with `g`, so taking it up front is
    cheap even for a run that resolves nothing.
    Packed ids are decoded here, by indexing the graphs' sorted `arcs`.
    """
    above, below = result.tables["above"], result.tables["below"]
    inst = result.instance
    network, gamma_children = inst.network, inst.extension.gamma._children
    t_arcs, n_arcs = inst.tree.arcs, network.arcs
    shift, mask = _pair_bits(network)
    index = inst.extension._valid_index()
    pre, end = index.pre, index.end
    paths: dict[Arc, list[str]] = {}
    started: set[Arc] = set()
    overlap: set[Arc] = set()
    tail: dict[int, str] = {}  # network arc id -> its tail in the resolution
    resolution: list[Arc] = []
    names = network.fresh_names()

    stack = [(above[result.final_vertex], result.accepting_key)]
    while stack:
        table, key = stack.pop()
        tag = table[key]
        kind = tag[0]
        if kind == "extend":
            _, v, inner, a = tag
            u = tail.get(a) or n_arcs[a][0]
            for p in inner:
                if n_arcs[p & mask][0] == v:
                    paths.setdefault(t_arcs[p >> shift], []).append(u)
            stack.append((below[v], inner))
        elif kind == "leaf" or kind == "grow":
            # A path starts on the pair's network arc, which is an in-arc of
            # v for a grow; the bundled arcs stay embedded, no longer topmost.
            if kind == "leaf":
                (p,) = key
            else:
                _, v, inner, p = tag
                stack.append((below[v], inner))
            arc, b = t_arcs[p >> shift], p & mask
            if arc in started:
                overlap.add(arc)
            started.add(arc)
            u, head = n_arcs[b]
            paths.setdefault(arc, []).extend((tail.get(b) or u, head))
        elif kind == "join":
            _, v = tag
            for q in reversed(gamma_children[v]):  # so they unfold in order
                lo, hi = pre[q], end[q]
                stack.append((above[q], tuple([p for p in key
                                               if lo <= pre[n_arcs[p & mask][1]] < hi])))
        elif kind == "resolve":
            _, v, inner, a, plan = tag
            nodes = [(plan, tail.get(a) or n_arcs[a][0], v)]
            while nodes:
                (ids, grown, *parts), u, w = nodes.pop()
                if grown:
                    arc = t_arcs[ids[0]]
                    if arc in started:
                        overlap.add(arc)
                    started.add(arc)
                    paths.setdefault(arc, []).extend((u, w))
                else:
                    for i in ids:
                        paths.setdefault(t_arcs[i], []).append(u)
                for part in parts:
                    if isinstance(part, int):
                        tail[part] = w
                        resolution.append((w, n_arcs[part][1]))
                    else:
                        fresh = next(names)
                        resolution.append((w, fresh))
                        nodes.append((part, w, fresh))
            stack.append((below[v], inner))
        else:
            raise InternalError(f"unknown provenance tag {tag!r}")
    if overlap:
        raise InternalError(f"joined embeddings overlap on {sorted(overlap)}")
    if resolution:
        kept = [arc for b, arc in enumerate(n_arcs) if b not in tail]
        network = Digraph(kept + resolution, network.labels)
    return network, {a: tuple(path) for a, path in paths.items()}
