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


def _split_lines(text):
    """The lines of `text`, each cut at its first `#`.  A line ends only at
    `\\n`, `\\r\\n` or `\\r`: the other breaks of `str.splitlines`, such as
    `\\f`, `\\v`, `\\x85` and U+2028, are whitespace inside their line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


def _column(line, index):
    """The 1-based column of the `index`-th token of `line`, for error
    messages only: the parsers split lines with `str.split`."""
    return [m.start() + 1 for m in _TOKEN_RE.finditer(line)][index]


def parse_edgelist(text: str) -> Digraph:
    """The graph of an edge-list document; its header is checked, and its
    name is not kept.

    One pass over the lines takes each valid arc and label line at once and
    raises `ParseError` at the first faulty line, with its line and column.
    The labels are checked against the arcs after the pass, and searched for
    the first faulty one only when those set checks fail."""
    lines = _split_lines(text)
    arcs: dict = {}           # arc -> line number
    labels: dict = {}         # vertex -> taxon
    taxa: dict = {}           # taxon -> line number
    header = False
    for lineno, line in enumerate(lines, 1):
        toks = line.split()
        if len(toks) == 3:
            kind, x, y = toks
            if kind == "A" and x != y and (x, y) not in arcs:
                arcs[x, y] = lineno
                continue
            if kind == "L" and x not in labels and y not in taxa:
                labels[x] = y
                taxa[y] = lineno
                continue
        elif not toks:
            continue
        # A header or a faulty line; `x` and `y` are bound if it has 3 tokens.
        kind = toks[0]
        if kind == "network":
            if header or arcs or labels:
                raise ParseError("header must come first", lineno, _column(line, 0))
            if len(toks) != 2:
                raise ParseError("header needs exactly one name", lineno,
                                 _column(line, 0))
            header = True
        elif kind == "A":
            if len(toks) != 3:
                raise ParseError("arc line needs a tail and a head", lineno,
                                 _column(line, 0))
            if x == y:
                raise ParseError(f"self-loop on {x!r}", lineno, _column(line, 1))
            raise ParseError(f"duplicate arc ({x}, {y}), first seen on line "
                             f"{arcs[x, y]}", lineno, _column(line, 0))
        elif kind == "L":
            if len(toks) != 3:
                raise ParseError("label line needs a vertex and a taxon", lineno,
                                 _column(line, 0))
            if x in labels:
                raise ParseError(f"vertex {x!r} labeled twice", lineno, _column(line, 1))
            raise ParseError(f"taxon {y!r} used twice", lineno, _column(line, 2))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno, _column(line, 0))
    if not arcs:
        raise ParseError("document contains no arcs", 1, 1)
    tails, heads = zip(*arcs)
    mentioned = {*tails, *heads}
    if not (mentioned.issuperset(labels) and labels.keys().isdisjoint(tails)):
        tails = set(tails)
        for vertex, taxon in labels.items():
            if vertex not in mentioned or vertex in tails:
                what = "unknown" if vertex not in mentioned else "non-leaf"
                lineno = taxa[taxon]
                raise ParseError(f"label on {what} vertex {vertex!r}", lineno,
                                 _column(lines[lineno - 1], 1))
    # Every invariant of a `Digraph` is checked above, with its line.
    vertices = tuple(sorted(mentioned))
    return Digraph._of(vertices, *_adjacency(vertices, sorted(arcs)),
                       dict(sorted(labels.items())))


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
    known = host._parents
    seen: dict = {}           # arc -> line number
    for lineno, line in enumerate(_split_lines(text), 1):
        toks = line.split()
        if len(toks) == 3:
            kind, parent, child = toks
            if (kind == "E" and parent in known and child in known
                    and parent != child and (parent, child) not in seen):
                seen[parent, child] = lineno
                continue
        elif not toks:
            continue
        # A faulty line; `parent` and `child` are bound if it has 3 tokens.
        if toks[0] != "E":
            raise ParseError(f"unknown directive {toks[0]!r}", lineno, _column(line, 0))
        if len(toks) != 3:
            raise ParseError("extension line needs a parent and a child", lineno,
                             _column(line, 0))
        for index, v in ((1, parent), (2, child)):
            if v not in known:
                raise ParseError(f"unknown vertex {v!r}", lineno, _column(line, index))
        if parent == child:
            raise ParseError(f"self-loop on {parent!r}", lineno, _column(line, 1))
        raise ParseError(f"duplicate line for ({parent}, {child})", lineno,
                         _column(line, 0))
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

    def error(self, message, pos=None):
        """Raise `ParseError` at offset `pos` of the text, by default the
        current one, with the line and column it has in the document."""
        pos = self.pos if pos is None else pos
        raise ParseError(message, self.text.count("\n", 0, pos) + 1,
                         pos - self.text.rfind("\n", 0, pos))

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
            if self.peek() == "(":
                open_nodes.append(([], self.pos))
                self.pos += 1
                continue
            node = self.node([], self.pos)
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
                    self.error(f"hybrid {tag!r} given two child sets", node["pos"])
                if not known and node["name"] is not None:
                    self.labels[vid] = node["name"]
            else:
                vid = self.fresh()
                if node["name"] is not None:
                    self.labels[vid] = node["name"]
            if parent is None:
                root_id = vid
            elif vid == parent:
                self.error(f"hybrid {tag!r} is a child of itself", node["pos"])
            elif (parent, vid) in self.arcs:
                self.error(f"hybrid {tag!r} is a child of one parent twice",
                           node["pos"])
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
    return _Newick(text).parse()
