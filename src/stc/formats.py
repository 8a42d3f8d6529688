"""Text formats: the edge-list document, extension documents, and eNewick.

The edge-list format is line based: an optional `network <name>` header,
`A tail head` arc lines, and `L vertex taxon` label lines; `#` starts a
comment.  Extensions use `E parent child` lines over a known host.
"""

from __future__ import annotations

import re

from .digraph import Digraph, _adjacency
from .errors import ParseError
from .extension import TreeExtension

_TOKEN_RE = re.compile(r"\S+")


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            yield lineno, stripped


def _column(line, index):
    """The 1-based column of the `index`-th token of `line`, for error
    messages only: the parsers split lines with `str.split`."""
    return [m.start() + 1 for m in _TOKEN_RE.finditer(line)][index]


def parse_edgelist(text: str) -> Digraph:
    """The graph of an edge-list document; its header is checked, and its
    name is not kept.

    Each line is split once, and the arcs and labels are checked in bulk,
    with set operations.  A document that fails any check is parsed again
    by `_parse_edgelist_lines`, which raises, naming the first fault with
    its line and column."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = [row for row in map(str.split, lines) if row]
    if rows and rows[0][0] == "network" and len(rows[0]) == 2:
        del rows[0]
    if rows and set(map(len, rows)) == {3}:
        arcs = [(x, y) for kind, x, y in rows if kind == "A"]
        labels = {x: y for kind, x, y in rows if kind == "L"}
        # Every row is an arc or a label, no vertex is labeled twice, and
        # there is an arc.
        if arcs and len(arcs) + len(labels) == len(rows):
            tails, heads = zip(*arcs)
            mentioned = {*tails, *heads}
            if (len(set(arcs)) == len(arcs)
                    and not any(map(str.__eq__, tails, heads))
                    and len(set(labels.values())) == len(labels)
                    and mentioned.issuperset(labels)
                    and labels.keys().isdisjoint(tails)):
                vertices = tuple(sorted(mentioned))
                arcs.sort()
                return Digraph._of(vertices, *_adjacency(vertices, arcs),
                                   dict(sorted(labels.items())))
    return _parse_edgelist_lines(text)


def _parse_edgelist_lines(text: str) -> Digraph:
    """`parse_edgelist` line by line: the first fault raises `ParseError`
    with its line and column."""
    arc_lines: dict = {}       # arc -> line number
    labels: dict = {}         # vertex -> (taxon, line number, line)
    taxa: set = set()
    first = True
    for lineno, line in _lines(text):
        toks = line.split()
        kind = toks[0]
        if kind == "network":
            if not first:
                raise ParseError("header must come first", lineno, _column(line, 0))
            if len(toks) != 2:
                raise ParseError("header needs exactly one name", lineno,
                                 _column(line, 0))
        elif kind == "A":
            if len(toks) != 3:
                raise ParseError("arc line needs a tail and a head", lineno,
                                 _column(line, 0))
            tail, head = toks[1], toks[2]
            if tail == head:
                raise ParseError(f"self-loop on {tail!r}", lineno, _column(line, 1))
            if (tail, head) in arc_lines:
                raise ParseError(
                    f"duplicate arc ({tail}, {head}), first seen on line "
                    f"{arc_lines[(tail, head)]}", lineno, _column(line, 0))
            arc_lines[(tail, head)] = lineno
        elif kind == "L":
            if len(toks) != 3:
                raise ParseError("label line needs a vertex and a taxon", lineno,
                                 _column(line, 0))
            vertex, taxon = toks[1], toks[2]
            if vertex in labels:
                raise ParseError(f"vertex {vertex!r} labeled twice", lineno,
                                 _column(line, 1))
            if taxon in taxa:
                raise ParseError(f"taxon {taxon!r} used twice", lineno, _column(line, 2))
            taxa.add(taxon)
            labels[vertex] = (taxon, lineno, line)
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno, _column(line, 0))
        first = False
    if not arc_lines:
        raise ParseError("document contains no arcs", 1, 1)
    mentioned = {x for a in arc_lines for x in a}
    out_tails = {a[0] for a in arc_lines}
    for vertex, (taxon, lineno, line) in labels.items():
        if vertex not in mentioned:
            raise ParseError(f"label on unknown vertex {vertex!r}", lineno,
                             _column(line, 1))
        if vertex in out_tails:
            raise ParseError(f"label on non-leaf vertex {vertex!r}", lineno,
                             _column(line, 1))
    # Every invariant of a `Digraph` is checked above, with its line.
    vertices = tuple(sorted(mentioned))
    return Digraph._of(vertices, *_adjacency(vertices, sorted(arc_lines)),
                       {v: labels[v][0] for v in sorted(labels)})


def serialize_edgelist(graph: Digraph, name: str | None = None) -> str:
    out = []
    if name is not None:
        out.append(f"network {name}")
    for (u, v) in graph.arcs:
        out.append(f"A {u} {v}")
    for v, taxon in sorted(graph.labels.items()):
        out.append(f"L {v} {taxon}")
    return "\n".join(out) + "\n"


# -- extensions --------------------------------------------------------------


def parse_extension(text: str, host: Digraph) -> TreeExtension:
    seen: dict = {}           # arc -> line number
    for lineno, line in _lines(text):
        toks = line.split()
        kind = toks[0]
        if kind != "E":
            raise ParseError(f"unknown directive {kind!r}", lineno, _column(line, 0))
        if len(toks) != 3:
            raise ParseError("extension line needs a parent and a child", lineno,
                             _column(line, 0))
        parent, child = toks[1], toks[2]
        for index, v in ((1, parent), (2, child)):
            if v not in host._parents:
                raise ParseError(f"unknown vertex {v!r}", lineno, _column(line, index))
        if parent == child:
            raise ParseError(f"self-loop on {parent!r}", lineno, _column(line, 1))
        if (parent, child) in seen:
            raise ParseError(f"duplicate line for ({parent}, {child})", lineno,
                             _column(line, 0))
        seen[(parent, child)] = lineno
    if not seen:
        raise ParseError("extension document contains no lines", 1, 1)
    # The lines are checked above for every invariant of an unlabeled graph.
    vertices = tuple(sorted({v for arc in seen for v in arc}))
    gamma = Digraph._of(vertices, *_adjacency(vertices, sorted(seen)), {})
    ext = TreeExtension(host, gamma)
    ext.require_valid()
    return ext


def serialize_extension(ext: TreeExtension) -> str:
    return "\n".join(f"E {p} {c}" for (p, c) in ext.gamma.arcs) + "\n"


# -- eNewick -----------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9_.+-]+")
_NUMBER_RE = re.compile(r"[0-9.eE+-]+")
_HYBRID_RE = re.compile(r"#[A-Za-z]*[0-9]+")


class _Newick:
    """Parser with explicit stacks; vertex ids are n0, n1, ... in parse order.

    Parsing is two-phase: first the text becomes a node tree, then a
    pre-order walk assigns ids and merges hybrid occurrences.  Neither phase
    recurses, so nesting depth is bounded by memory only.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.counter = 0
        self.arcs: set = set()
        self.labels: dict = {}
        self.hybrids: dict = {}       # tag -> vertex id
        self.has_children: set = set()

    def error(self, message):
        raise ParseError(message, 1, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def fresh(self):
        vid = f"n{self.counter}"
        self.counter += 1
        return vid

    def parse(self) -> Digraph:
        tree = self.subtree()
        self.expect(";")
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing characters after ';'")
        root = self.assign(tree)
        labels = {v: t for v, t in sorted(self.labels.items())
                  if v not in self.has_children}
        seen = set()
        for t in labels.values():
            if t in seen:
                raise ParseError(f"taxon {t!r} on two distinct leaves", 1, 1)
            seen.add(t)
        # Every invariant of a `Digraph` is checked here and by `assign`.
        vertices = tuple(sorted({root, *(x for arc in self.arcs for x in arc)}))
        return Digraph._of(vertices, *_adjacency(vertices, sorted(self.arcs)), labels)

    def subtree(self) -> dict:
        # `open_nodes` holds the children read so far and the start of every
        # subtree whose closing parenthesis is still ahead.
        open_nodes: list = []
        while True:
            start = self.pos
            if self.peek() == "(":
                self.pos += 1
                open_nodes.append(([], start))
                continue
            node = self.node([], start)
            while open_nodes:
                children, start = open_nodes[-1]
                children.append(node)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                open_nodes.pop()
                node = self.node(children, start)
            else:
                return node

    def node(self, children, start) -> dict:
        name, tag = self.decoration()
        if tag is None and name is None and not children:
            self.error("expected a subtree")
        return {"children": children, "name": name, "tag": tag, "pos": start}

    def assign(self, root) -> str:
        """Give ids in pre-order; returns the root's id."""
        root_id = None
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            tag = node["tag"]
            if tag is not None:
                known = tag in self.hybrids
                if not known:
                    self.hybrids[tag] = self.fresh()
                vid = self.hybrids[tag]
                if node["children"] and vid in self.has_children:
                    raise ParseError(f"hybrid {tag!r} given two child sets",
                                     1, node["pos"] + 1)
                if not known and node["name"] is not None:
                    self.labels[vid] = node["name"]
            else:
                vid = self.fresh()
                if node["name"] is not None:
                    self.labels[vid] = node["name"]
            if parent is None:
                root_id = vid
            elif vid == parent:
                raise ParseError(f"hybrid {tag!r} is a child of itself",
                                 1, node["pos"] + 1)
            elif (parent, vid) in self.arcs:
                raise ParseError(f"hybrid {tag!r} is a child of one parent twice",
                                 1, node["pos"] + 1)
            else:
                self.arcs.add((parent, vid))
            if node["children"]:
                self.has_children.add(vid)
                stack += [(child, vid) for child in reversed(node["children"])]
        return root_id

    def decoration(self):
        name = tag = None
        m = _NAME_RE.match(self.text, self.pos) if self.peek() not in "#:(),;" else None
        if m and self.peek() != "":
            name = m.group()
            self.pos = m.end()
        if self.peek() == "#":
            m = _HYBRID_RE.match(self.text, self.pos)
            if not m:
                self.error("malformed hybrid tag")
            tag = m.group()
            self.pos = m.end()
        if self.peek() == ":":
            self.pos += 1
            self.skip_ws()
            m = _NUMBER_RE.match(self.text, self.pos)
            if not m:
                self.error("expected a branch length after ':'")
            try:
                float(m.group())
            except ValueError:
                self.error(f"bad branch length {m.group()!r}")
            self.pos = m.end()  # branch lengths are parsed and discarded
        return name, tag


def parse_enewick(text: str) -> Digraph:
    """Parse an (extended) Newick string into a digraph.

    Hybrid tags (`#H1` etc.) merge all their occurrences into one vertex;
    at most one occurrence may carry children, and only the first
    occurrence's name is kept.  Branch lengths are accepted and discarded.
    """
    if not text.strip():
        raise ParseError("empty document", 1, 1)
    return _Newick(text.strip()).parse()
