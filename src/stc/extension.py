"""Tree extensions of rooted DAGs: validation, scan cuts, width, canonical form.

A tree extension of a DAG is an out-tree over the same vertex set whose
strict ancestor relation contains every arc of the DAG.  The scan cut just
above a vertex collects the DAG arcs that cross a horizontal line drawn
there; the maximum cut size is the width driving the dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .digraph import Arc, Digraph, TreeIndex
from .errors import InputError, InternalError

CUT_ABOVE = "above"
CUT_BELOW = "below"


class TreeExtension:
    """An out-tree `gamma` over the vertices of a host DAG.

    Both graphs are immutable, so everything derived from them (validity,
    the pre-order index, the cut sizes) is computed once and cached.
    """

    def __init__(self, host: Digraph, gamma: Digraph):
        self.host = host
        self.gamma = gamma

    def __eq__(self, other):
        if not isinstance(other, TreeExtension):
            return NotImplemented
        return self.host == other.host and self.gamma == other.gamma

    def __repr__(self):
        return f"TreeExtension({len(self.gamma)} vertices)"

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        out = []
        hv, gv = set(self.host.vertices), set(self.gamma.vertices)
        if hv != gv:
            missing = sorted(hv - gv)
            extra = sorted(gv - hv)
            if missing:
                out.append(f"vertex-set mismatch: missing {', '.join(missing)}")
            if extra:
                out.append(f"vertex-set mismatch: extra {', '.join(extra)}")
        if len(self.gamma.roots) != 1:
            out.append(f"not an out-tree: {len(self.gamma.roots)} roots")
        else:
            bad = sorted(v for v in self.gamma.vertices if self.gamma.in_degree(v) > 1)
            if bad:
                out.append(f"not an out-tree: in-degree > 1 at {bad[0]}")
            elif not self.gamma.is_acyclic():
                out.append("not an out-tree: cyclic")
        if out:
            return tuple(out)
        index = self._index
        for (u, v) in self.host.arcs:
            if not index.strictly_below(u, v):
                out.append(f"arc ({u}, {v}) not inside the strict ancestor relation")
        return tuple(out)

    @cached_property
    def _index(self) -> TreeIndex:
        # Only built once `gamma` is known to be an out-tree.
        return TreeIndex(self.gamma)

    def violations(self) -> list[str]:
        """Every violated extension clause, each with a witness."""
        return list(self._violations)

    def is_valid(self) -> bool:
        return not self._violations

    def require_valid(self) -> None:
        problems = self._violations
        if problems:
            raise InputError("invalid tree extension: " + "; ".join(problems))

    def _valid_index(self) -> TreeIndex:
        self.require_valid()
        return self._index

    # -- scan cuts ---------------------------------------------------------

    def scan_cut(self, t: str, kind: str = CUT_ABOVE) -> tuple[Arc, ...]:
        """The host arcs crossing just above (or just below) `t`.

        Every host arc points down the extension, so the cut above `t` is
        the arcs entering the subtree of `t`, and the cut below `t` is the
        arcs entering that subtree with `t` itself left out.
        """
        if t not in self.gamma:
            raise InputError(f"unknown vertex {t!r}")
        if kind not in (CUT_ABOVE, CUT_BELOW):
            raise InputError(f"unknown cut kind {kind!r}")
        index = self._valid_index()
        inside = index.in_subtree if kind == CUT_ABOVE else index.strictly_below
        return tuple((u, v) for (u, v) in self.host.arcs
                     if inside(t, v) and not inside(t, u))

    @cached_property
    def _cut_sizes(self) -> dict[str, tuple[int, int]]:
        index = self._valid_index()
        host = self.host
        # The cut above t counts the arcs entering the subtree of t: the
        # in-arcs of its vertices minus the arcs inside it, which are
        # exactly their out-arcs.
        above = {v: host.in_degree(v) - host.out_degree(v) for v in index.order}
        for v in reversed(index.order[1:]):
            above[index.parent[v]] += above[v]
        return {v: (a, a - host.in_degree(v) + host.out_degree(v))
                for v, a in above.items()}

    def cut_sizes(self) -> dict[str, tuple[int, int]]:
        """(size of the cut above, size of the cut below) for every vertex."""
        return dict(self._cut_sizes)

    def width(self) -> int:
        """Maximum size of a cut just above any vertex."""
        return max(above for above, _ in self._cut_sizes.values())

    # -- canonicality ------------------------------------------------------

    def canonicality_violations(self) -> list[str]:
        """Check the four canonical-extension clauses (requires validity)."""
        index = self._valid_index()
        host = self.host
        # The host arcs inside the subtree of t are the out-arcs of its
        # vertices, so a bottom-up union-find over out-arcs sees each
        # subtree's weak components when its top vertex is done.
        link: dict[str, str] = {}

        def find(v: str) -> str:
            root = v
            while link[root] != root:
                root = link[root]
            while link[v] != root:
                link[v], v = root, link[v]
            return root

        components: dict[str, int] = {}
        for t in reversed(index.order):
            link[t] = t
            count = 1 + sum(components[c] for c in self.gamma.children(t))
            for w in host.children(t):
                a, b = find(t), find(w)
                if a != b:
                    link[b] = a
                    count -= 1
            components[t] = count
        out = [f"host below {t} is not weakly connected"
               for t in self.gamma.vertices if components[t] != 1]
        if set(self.gamma.leaves) != set(self.host.leaves):
            out.append("leaf sets of extension and host differ")
        for v in self.gamma.vertices:
            if self.gamma.out_degree(v) > self.host.out_degree(v):
                out.append(f"extension out-degree exceeds host out-degree at {v}")
        return out

    def is_canonical(self) -> bool:
        return self.is_valid() and not self.canonicality_violations()


# -- canonicalization ------------------------------------------------------


def _canonical_from_order(host: Digraph, order) -> TreeExtension:
    """Build a canonical extension from a children-first vertex order.

    Processes vertices in `order`, maintaining a forest over the processed
    prefix; a vertex adopts the root of every forest component that contains
    one of its host children.  Components coincide with the weakly connected
    components of the host induced on the prefix, which yields the canonical
    connectivity property and never enlarges any scan cut.
    """
    comp_parent: dict[str, str] = {}
    comp_root: dict[str, str] = {}
    tree_parent: dict[str, str] = {}

    def find(v: str) -> str:
        root = v
        while comp_parent[root] != root:
            root = comp_parent[root]
        while comp_parent[v] != root:
            comp_parent[v], v = root, comp_parent[v]
        return root

    for v in order:
        comp_parent[v] = v
        comp_root[v] = v
        adopted = []
        for c in sorted(host.children(v)):
            rep = find(c)
            root = comp_root[rep]
            if root != v and root not in adopted:
                adopted.append(root)
                tree_parent[root] = v
                comp_parent[rep] = v
        comp_root[find(v)] = v

    arcs = [(p, c) for c, p in tree_parent.items()]
    gamma = Digraph(arcs, vertices=host.vertices)
    return TreeExtension(host, gamma)


def canonicalize(ext: TreeExtension) -> TreeExtension:
    """A canonical extension of the same host with no larger width."""
    ext.require_valid()
    if len(ext.host.roots) != 1:
        raise InputError("canonicalization needs a rooted host")
    order = tuple(reversed(ext.gamma.topological_order()))
    return _canonical_from_order(ext.host, order)


def default_extension(host: Digraph) -> TreeExtension:
    """A canonical extension built from scratch (no width optimality claimed)."""
    if len(host.roots) != 1:
        raise InputError("need a rooted host")
    order = tuple(reversed(host.topological_order()))
    return _canonical_from_order(host, order)


# -- maintenance under pipeline rewrites ------------------------------------
#
# Each step of the reduction owns its host rewrite (`step.apply(host)`);
# `update_extension` carries the extension tree across it.  A step's `kind`
# names it in the output of `stc reduce`.


@dataclass(frozen=True)
class AttachRootStep:
    """A fresh degree-1 root was attached above the host root."""
    kind = "attach_root"
    new_root: str

    def apply(self, host: Digraph) -> Digraph:
        if self.new_root in host:
            raise InputError(f"root id {self.new_root!r} already present")
        return Digraph(list(host.arcs) + [(self.new_root, host.root())], host.labels)


@dataclass(frozen=True)
class InSplitStep:
    """Two parents of `vertex` were moved above the fresh `new_vertex`."""
    kind = "insplit"
    vertex: str
    parents: tuple[str, str]
    new_vertex: str

    def apply(self, host: Digraph) -> Digraph:
        return host.in_split(self.vertex, self.parents, self.new_vertex)


@dataclass(frozen=True)
class RestrictStep:
    """The host was pruned down to `new_host`; removed vertices contract away."""
    kind = "prune"
    new_host: Digraph

    def apply(self, host: Digraph) -> Digraph:
        # `prune_to_leafset` computed the pruned host from this same `host`.
        return self.new_host


def update_extension(ext: TreeExtension, step) -> TreeExtension:
    """Carry a valid extension across one pipeline rewrite of its host."""
    if not isinstance(step, (AttachRootStep, InSplitStep, RestrictStep)):
        raise InternalError(f"unknown extension update step: {step!r}")
    host = step.apply(ext.host)
    gamma = ext.gamma
    if isinstance(step, InSplitStep):
        parents = gamma.parents(step.vertex)
        if len(parents) != 1:
            raise InputError(f"{step.vertex!r} has no extension parent to subdivide at")
        return TreeExtension(host, gamma.subdivide((parents[0], step.vertex),
                                                   step.new_vertex))
    if isinstance(step, AttachRootStep):
        arcs = list(gamma.arcs) + [(step.new_root, gamma.root())]
    else:
        arcs = _restricted_arcs(gamma, host)
    return TreeExtension(host, Digraph(arcs, vertices=host.vertices))


def _restricted_arcs(gamma: Digraph, host: Digraph) -> list[Arc]:
    """`gamma` restricted to the vertices of the pruned `host`."""
    surviving = set(host.vertices)
    unknown = surviving - set(gamma.vertices)
    if unknown:
        raise InputError(f"restricted host has unknown vertices: {sorted(unknown)}")
    # Splice every removed vertex's children onto its nearest surviving
    # ancestor; stray component roots hang under the main component.
    parent = {}
    for (p, c) in gamma.arcs:
        parent[c] = p
    new_parent = {}
    for v in sorted(surviving):
        p = parent.get(v)
        while p is not None and p not in surviving:
            p = parent.get(p)
        if p is not None:
            new_parent[v] = p
    component_roots = sorted(v for v in surviving if v not in new_parent)
    anchor = host.root()
    while anchor in new_parent:
        anchor = new_parent[anchor]
    for r in component_roots:
        if r != anchor:
            new_parent[r] = anchor
    return [(p, c) for c, p in new_parent.items()]
