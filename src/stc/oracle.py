"""Brute-force display oracles used to cross-check the dynamic program.

Two independent firm-display checks are provided: exhaustive arc-subset
enumeration (simple, tightly capped) and per-reticulation parent switching
(scales to the reduced networks the pipeline produces).  Soft display is the
double existential over binary resolutions of both sides.
"""

from __future__ import annotations

import itertools

from .digraph import Digraph, TreeIndex
from .errors import InputError, OracleTooLargeError

DEFAULT_ARC_CAP = 16
DEFAULT_RESOLUTION_CAP = 20000


def _suppressed_canon(root, childmap, label_of):
    """Canonical form of a tree given as a child map, suppressing chains.

    A flat token tuple: a leaf is "L" followed by its taxon, a vertex with
    one child has that child's form, and any other vertex is "(", its
    children's forms in sorted order, then ")".  Two trees get equal forms
    iff, with chains suppressed, they are isomorphic respecting leaves.
    Built, compared and hashed without recursion, whatever the depth; None
    if some leaf has no taxon.
    """
    form: dict = {}
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        kids = childmap.get(v, ())
        if not kids:
            taxon = label_of(v)
            if taxon is None:
                return None
            form[v] = ("L" + taxon,)
        elif not done:
            stack.append((v, True))
            stack.extend((c, False) for c in kids)
        else:
            parts = sorted(form.pop(c) for c in kids)
            form[v] = parts[0] if len(parts) == 1 else (
                "(", *itertools.chain(*parts), ")")
    return form[root]


def _tree_target(t: Digraph):
    TreeIndex(t)   # raises InputError unless `t` is an out-tree
    childmap = {v: t.children(v) for v in t.vertices}
    return _suppressed_canon(t.root(), childmap, t.label_of)


# -- firm display by arc-subset enumeration ----------------------------------


def firm_display(n: Digraph, t: Digraph, cap: int | None = None) -> bool:
    """Whether some subgraph of `n` suppresses to a copy of `t`.

    Enumerates every arc subset of `n` in Gray-code order, maintaining
    degree counts incrementally so non-candidates are rejected in constant
    time.  Raises when `n` has more arcs than the cap allows.
    """
    if not t.taxa <= n.taxa:
        return False
    arcs = list(n.arcs)
    m = len(arcs)
    cap = DEFAULT_ARC_CAP if cap is None else cap
    if m > cap:
        raise OracleTooLargeError(
            f"{m} arcs exceeds the subset-enumeration cap of {cap}")
    target = _tree_target(t)
    want = t.taxa
    min_arcs = len(t.arcs)

    indeg = {v: 0 for v in n.vertices}
    outdeg = {v: 0 for v in n.vertices}
    doubled_heads = 0   # vertices with in-degree >= 2 in the selection
    selected = 0
    prev = 0
    for i in range(1, 1 << m):
        g = i ^ (i >> 1)
        j = (g ^ prev).bit_length() - 1
        adding = bool(g & (g ^ prev))
        prev = g
        (u, v) = arcs[j]
        if adding:
            outdeg[u] += 1
            indeg[v] += 1
            selected += 1
            if indeg[v] == 2:
                doubled_heads += 1
        else:
            outdeg[u] -= 1
            indeg[v] -= 1
            selected -= 1
            if indeg[v] == 1:
                doubled_heads -= 1
        if doubled_heads or selected < min_arcs:
            continue
        if _selected_matches(g, arcs, n, indeg, outdeg, want, target):
            return True
    return False


def _selected_matches(mask, arcs, n, indeg, outdeg, want, target) -> bool:
    chosen = [arcs[j] for j in range(len(arcs)) if mask >> j & 1]
    touched = {x for a in chosen for x in a}
    roots = [v for v in touched if indeg[v] == 0]
    if len(roots) != 1:
        return False
    # in-degrees are all <= 1, so connectivity is a vertex count
    if len(touched) != len(chosen) + 1:
        return False
    sinks = [v for v in touched if outdeg[v] == 0]
    if {n.label_of(v) for v in sinks} != want:
        return False
    childmap: dict = {}
    for (u, v) in chosen:
        childmap.setdefault(u, []).append(v)
    return _suppressed_canon(roots[0], childmap, n.label_of) == target


# -- firm display by reticulation switching ----------------------------------


def firm_display_switching(n: Digraph, t: Digraph) -> bool:
    """Firm display decided by trying every choice of reticulation parents.

    Keeping one in-arc per reticulation turns the network into a tree; the
    displayed subtrees are exactly the taxon-spanning subtrees of those
    trees, so it suffices to compare each against the target.
    """
    if not t.taxa <= n.taxa:
        return False
    target = _tree_target(t)
    root = n.root()
    retics = sorted(v for v in n.vertices if n.in_degree(v) >= 2)
    targets = [n.leaf_by_taxon[x] for x in sorted(t.taxa)]
    base_parent = {v: n.parents(v)[0]
                   for v in n.vertices if n.in_degree(v) == 1}
    for choice in itertools.product(*(sorted(n.parents(r)) for r in retics)):
        parent = dict(base_parent)
        parent.update(zip(retics, choice))
        childmap: dict = {}
        seen: set = set()
        for leaf in targets:
            v = leaf
            while v != root:
                p = parent[v]
                childmap.setdefault(p, set()).add(v)
                if p in seen:
                    break
                seen.add(p)
                v = p
        if _suppressed_canon(root, childmap, n.label_of) == target:
            return True
    return False


# -- binary resolutions ------------------------------------------------------


def binary_shapes(items):
    """Every rooted binary tree shape over the given items, each once.

    A shape is either a single item or a nested pair of shapes; pairs are
    unordered (stored sorted), so shapes over d items number (2d-3)!!.
    """
    items = tuple(items)
    if len(set(items)) != len(items) or not items:
        raise InputError("shapes need distinct, nonempty items")
    return _shapes(items)


def _norm(a, b):
    return tuple(sorted((a, b), key=repr))


def _shapes(items):
    if len(items) == 1:
        return [items[0]]
    first = items[0]
    out = []
    for rest in _shapes(items[1:]):
        out.extend(_insertions(rest, first))
    return out


def _insertions(shape, x):
    yield _norm(shape, x)
    if isinstance(shape, tuple):
        a, b = shape
        for a2 in _insertions(a, x):
            yield _norm(a2, b)
        for b2 in _insertions(b, x):
            yield _norm(a, b2)


def _shape_count(d):
    out = 1
    for k in range(3, 2 * d - 2, 2):
        out *= k
    return out


def enumerate_resolutions(n: Digraph, mode: str = "both",
                          cap: int | None = None):
    """Yield every binary resolution of `n`, each exactly once.

    `mode` picks which side of the degrees to resolve: "in", "out", or
    "both" (in-resolution first, then out-resolution of the result).  A
    binary input yields itself.  The product of shape counts over all
    unresolved vertices is checked against the cap up front.
    """
    if mode not in ("in", "out", "both"):
        raise InputError(f"unknown resolution mode {mode!r}")
    cap = DEFAULT_RESOLUTION_CAP if cap is None else cap
    total = 1
    for v in n.vertices:
        if mode in ("out", "both") and n.out_degree(v) >= 3:
            total *= _shape_count(n.out_degree(v))
        if mode in ("in", "both") and n.in_degree(v) >= 3:
            total *= _shape_count(n.in_degree(v))
        if total > cap:
            raise OracleTooLargeError(
                f"more than {cap} binary resolutions")
    if mode == "both":
        for ni in _resolve(n, "in"):
            yield from _resolve(ni, "out")
    else:
        yield from _resolve(n, mode)


def _resolve(n: Digraph, side: str):
    degree = n.in_degree if side == "in" else n.out_degree
    polys = [v for v in n.vertices if degree(v) >= 3]
    if not polys:
        yield n
        return
    options = []
    for v in polys:
        ends = sorted(n.parents(v) if side == "in" else n.children(v))
        options.append([(v, s) for s in _shapes(tuple(ends))])
    for combo in itertools.product(*options):
        arcs = list(n.arcs)
        names = n.fresh_names()
        for (v, shape) in combo:
            if side == "in":
                arcs = [a for a in arcs if a[1] != v]
            else:
                arcs = [a for a in arcs if a[0] != v]
            a, b = shape
            for half in (a, b):
                top = _materialize(half, arcs, names, side)
                arcs.append((top, v) if side == "in" else (v, top))
        yield Digraph(arcs, n.labels)


def _materialize(shape, arcs, names, side):
    if not isinstance(shape, tuple):
        return shape
    a, b = shape
    nid = next(names)
    for half in (a, b):
        top = _materialize(half, arcs, names, side)
        arcs.append((top, nid) if side == "in" else (nid, top))
    return nid


# -- soft display ------------------------------------------------------------


def soft_display(n: Digraph, t: Digraph, method: str = "switching",
                 cap: int | None = None) -> bool:
    """Whether some binary resolution of `n` firmly displays one of `t`.

    `method` selects the firm-display backend: "switching" (default) or
    "subsets"; the latter honors the arc cap and may raise on large inputs.
    """
    if method not in ("switching", "subsets"):
        raise InputError(f"unknown oracle method {method!r}")
    if not t.taxa <= n.taxa:
        return False
    tree_resolutions = list(enumerate_resolutions(t, "out"))
    for n2 in enumerate_resolutions(n, "both"):
        for t2 in tree_resolutions:
            if method == "switching":
                if firm_display_switching(n2, t2):
                    return True
            elif firm_display(n2, t2, cap=cap):
                return True
    return False
