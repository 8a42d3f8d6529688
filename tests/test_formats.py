"""Edge-list, extension, and eNewick parsing with positional diagnostics."""

import contextlib
import io
import math
import os
import random
import statistics
import subprocess
import sys

import pytest

import stc

from stc import (
    Digraph,
    GeneratorParams,
    InputError,
    ParseError,
    TreeExtension,
    default_extension,
    parse_edgelist,
    parse_enewick,
    parse_extension,
    serialize_edgelist,
    serialize_extension,
)
from stc.cli import main
from stc.digraph import _adjacency, classify
from stc.formats import _column
from test_cli import _mutate
from test_reduction import _random_chain

DOC = """\
network demo
# a comment
A rho s
A rho t
A s a   # trailing comment
A s b
A t c
L a x
L b y
L c z
"""


def test_parse_edgelist_document():
    graph = parse_edgelist(DOC)
    assert graph.root() == "rho"
    assert graph.taxa == frozenset("xyz")


def test_round_trip_is_identity():
    graph = parse_edgelist(DOC)
    text = serialize_edgelist(graph, "demo")
    assert parse_edgelist(text) == graph
    assert serialize_edgelist(parse_edgelist(text), "demo") == text


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_edgelist("A a b\nA a\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_edgelist("A a b\nA a b\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_edgelist("A a b\nQ a b\n")
    assert exc.value.line == 2 and exc.value.column == 1
    with pytest.raises(ParseError):
        parse_edgelist("# nothing but comments\n")
    with pytest.raises(ParseError) as exc:
        parse_edgelist("A a b\nnetwork late\n")
    assert exc.value.line == 2
    # Columns count characters from 1 whatever the blanks: tabs, runs of
    # spaces, leading blanks, and a token repeated on its line.
    for text, line, column, message in _POSITIONED_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_edgelist(text)
        assert (exc.value.line, exc.value.column) == (line, column), text
        assert message in str(exc.value)
    host = Digraph([("r", "a"), ("r", "b")], {"a": "a", "b": "b"})
    for text, line, column, message in _POSITIONED_EXTENSION_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_extension(text, host)
        assert (exc.value.line, exc.value.column) == (line, column), text
        assert message in str(exc.value)


_POSITIONED_ERRORS = (
    ("A a b\n\tA\ta\n", 2, 2, "arc line needs a tail and a head"),
    ("A a b\n   A   b    b\n", 2, 8, "self-loop on 'b'"),
    ("A a b\n  \t Q  a b\n", 2, 5, "unknown directive 'Q'"),
    ("A a a\n", 1, 3, "self-loop on 'a'"),
    ("A a b\nA a c\nL b x\n\tL  b \t y\n", 4, 5, "vertex 'b' labeled twice"),
    ("A a b\nA a c\nL b x\nL b x\n", 4, 3, "vertex 'b' labeled twice"),
    ("A a b\nA a c\nL b x\nL   c    x\n", 4, 10, "taxon 'x' used twice"),
    ("A a b\nA a c\nL b x\nL c x x\n", 4, 1, "label line needs a vertex and a taxon"),
    ("A a b\n  L  zz  x\n", 2, 6, "label on unknown vertex 'zz'"),
    ("A a b\n\t L \t a  x\n", 2, 7, "label on non-leaf vertex 'a'"),
    ("A a b\n A a  b\n", 2, 2, "duplicate arc (a, b), first seen on line 1"),
    ("A a b\n  network  late\n", 2, 3, "header must come first"),
    ("network  n  extra\nA a b\n", 1, 1, "header needs exactly one name"),
    ("A b b b\n", 1, 1, "arc line needs a tail and a head"),
)
_POSITIONED_EXTENSION_ERRORS = (
    ("E r a\n  E\t r   zz\n", 2, 10, "unknown vertex 'zz'"),
    ("E r a\n E  a a\n", 2, 5, "self-loop on 'a'"),
    ("E r a\n\tE r  a\n", 2, 2, "duplicate line for (r, a)"),
    (" F r a\n", 1, 2, "unknown directive 'F'"),
    ("E r a r\n", 1, 1, "extension line needs a parent and a child"),
)


def test_a_line_ends_only_at_a_newline(tmp_path):
    # `str.splitlines` also breaks a line at \f, \v, \x1c-\x1e, \x85, U+2028
    # and U+2029; here they are whitespace, in a comment or between tokens.
    for brk in ("\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"):
        graph = parse_edgelist(f"# note{brk}page two\nA r a\nA r b\nL a x\nL b y\n")
        assert graph == Digraph([("r", "a"), ("r", "b")], {"a": "x", "b": "y"})
        ext = parse_extension(f"E r a # note{brk}E r zz\r\nE r b\r", graph)
        assert ext.gamma.arcs == (("r", "a"), ("r", "b"))
    for doc, code, message in (
            ("# note\fpage two\nA r a\nA r b\nA r r\n", 65,
             "line 4, column 3: self-loop on 'r'"),
            ("A r a\vA r b\nL a x\nL b y\n", 65,
             "line 1, column 1: arc line needs a tail and a head"),
            ("A r a\rA r b\r\nL a x\nL b y\n", 0, "")):
        path = tmp_path / "F"
        path.write_bytes(doc.encode())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["extension", "default", "-n", str(path)]) == code, doc
        assert message in err.getvalue()


def _caterpillar_document(leaves):
    lines = []
    for i in range(leaves - 1):
        lines += [f"A c{i} l{i}", f"A c{i} c{i + 1}"]
    lines += [f"L l{i} t{i}" for i in range(leaves - 1)]
    lines.append(f"L c{leaves - 1} t{leaves - 1}")
    return "\n".join(lines) + "\n"


# Times `parse_edgelist` on each file named on the command line: the least
# CPU time of three rounds over all files, with the cyclic collector paused.
_TIME_PARSES = """\
import gc, sys, time
from stc import parse_edgelist
texts = [open(path, encoding="utf-8").read() for path in sys.argv[1:]]
best = [float("inf")] * len(texts)
gc.disable()
for _ in range(3):
    for i, text in enumerate(texts):
        start = time.process_time()
        parse_edgelist(text)
        best[i] = min(best[i], time.process_time() - start)
print(*best)
"""


def test_parsing_scales_linearly_in_the_labels(tmp_path):
    # A repeated taxon is found by lookup, not by a scan of the labels so far
    # (slope 2).  The parses run in a fresh interpreter: the heap of the test
    # process, and collector passes over it, would weigh more on the larger
    # documents.  A busy machine can still tilt one measurement, so the
    # lower slope of two counts.
    sizes = (2000, 4000, 8000)
    paths = []
    for leaves in sizes:
        path = tmp_path / f"caterpillar-{leaves}"
        path.write_text(_caterpillar_document(leaves), encoding="utf-8")
        paths.append(str(path))
    assert len(parse_edgelist(_caterpillar_document(sizes[0])).taxa) == sizes[0]
    src = os.path.dirname(os.path.dirname(stc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    slopes = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", _TIME_PARSES, *paths], env=env,
                             capture_output=True, text=True, check=True).stdout
        fit = statistics.linear_regression(
            [math.log(s) for s in sizes], [math.log(float(t)) for t in out.split()])
        slopes.append(fit.slope)
    assert min(slopes) <= 1.3, slopes


# -- the line parsers that the one-pass parsers replaced, kept verbatim as
# the references that the differential tests below compare against.  They
# split lines with `str.splitlines`, so the documents compared hold no line
# break but `\n` and `\r\n`.


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            yield lineno, stripped


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


def _parse_extension_lines(text: str, host: Digraph) -> TreeExtension:
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


def _outcome(parse, *args):
    """The graph that `parse` builds (an extension's `gamma`), down to the
    order of its maps, or the type, message, line and column of the error
    it raises."""
    try:
        g = parse(*args)
    except (ParseError, InputError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    g = getattr(g, "gamma", g)
    return (g.vertices, list(g._parents.items()), list(g._children.items()),
            list(g._labels.items()))


def _dressed(text, header="network  dressed"):
    """`text` with `header` (none if empty), comments, blank lines, tabs and
    CRLF endings, and with its lines reversed and no header."""
    lines = [line for line in text.splitlines() if not line.startswith("network ")]
    noisy = [f"{header} # a header", "", "# a comment"]
    noisy += [f"\t{line}   # line {i}" if i % 2 else f"{line}\t" for i, line in
              enumerate(lines)]
    return ["\r\n".join(noisy) + "\r\n", "\n".join(reversed(lines))]


def test_parse_edgelist_agrees_with_the_line_parser(suite):
    # The one-pass parser builds the same graph as the line parser it
    # replaced, and names the same first fault at the same line and column.
    valid = [DOC, *(doc for _, n, t, _ in suite[::5]
                    for doc in (serialize_edgelist(n, "n"), serialize_edgelist(t)))]
    for params in (GeneratorParams(12, 6, 0.5, 2, "yes-biased"),
                   GeneratorParams(30, 8, 0.3, 5, "unlabeled")):
        inst = stc.generate(params)
        valid += [inst.network_doc, inst.tree_doc]
    valid += [dressed for text in valid[:20] for dressed in _dressed(text)]
    for text in valid:
        graph = _outcome(parse_edgelist, text)
        assert graph[0] is not ParseError, text
        assert graph == _outcome(_parse_edgelist_lines, text), text
    for text, *_ in _POSITIONED_ERRORS:
        assert _outcome(parse_edgelist, text) == _outcome(_parse_edgelist_lines, text)
    faults = set()
    for text in valid[:12:3]:
        graph = parse_edgelist(text)
        vertices = sorted({*graph.vertices, "zz"})
        taxa = sorted({*graph.taxa, "tz"})
        n, m = len(text.splitlines()), len(vertices)
        mutations = [("drop", i, 0) for i in range(n)]
        mutations += [("arc", i, j) for i in range(m) for j in range(m)]
        mutations += [("label", i, j) for i in range(m) for j in range(len(taxa))]
        mutations += [("swap", i, j) for i in range(n) for j in range(n)]
        mutations += [("byte", i, j) for i in range(0, len(text), 7) for j in (0, 40)]
        # The last line labels a leaf: with it dropped, a new label on that
        # leaf may repeat a taxon and nothing else.
        for base in (text, _mutate(text, "drop", n - 1, 0, vertices, taxa)):
            for kind, i, j in mutations:
                mutated = _mutate(base, kind, i, j, vertices, taxa)
                outcome = _outcome(parse_edgelist, mutated)
                assert outcome == _outcome(_parse_edgelist_lines, mutated), mutated
                if outcome[0] is ParseError:
                    faults.update(f for f in _FAULTS if f in outcome[1])
    assert faults == set(_FAULTS), faults


_FAULTS = ("duplicate arc", "self-loop", "labeled twice", "used twice",
           "unknown vertex", "non-leaf vertex", "unknown directive")


def test_parse_extension_agrees_with_the_line_parser(suite):
    # Valid, dressed and mutated extension documents over every suite
    # network: the same `gamma`, or the same error with its position.
    rng = random.Random(7)
    faults = set()
    for _, network, _, _ in suite:
        docs = [serialize_extension(ext) for ext in
                (default_extension(network), _random_chain(network, rng))]
        for text in docs + [d for text in docs for d in _dressed(text, header="")]:
            outcome = _outcome(parse_extension, text, network)
            assert outcome[0] is not ParseError, text
            assert outcome == _outcome(_parse_extension_lines, text, network), text
        vertices = sorted({*network.vertices, "zz"})
        m = len(vertices)
        for text in docs:
            n = len(text.splitlines())
            mutations = [("drop", i, 0) for i in range(n)]
            mutations += [("arc", i, rng.randrange(m)) for i in range(m)]
            # `swap` exchanges the taxa of `L` lines: none here.
            mutations += [("swap", i, i + 1) for i in range(n)]
            mutations += [("byte", i, 40 * (i % 2)) for i in range(0, len(text), 5)]
            for kind, i, j in mutations:
                mutated = _mutate(text, kind, i, j, vertices, ["tz"])
                outcome = _outcome(parse_extension, mutated, network)
                assert outcome == _outcome(_parse_extension_lines, mutated, network), \
                    mutated
                if outcome[0] in (ParseError, InputError):
                    faults.update(f for f in _EXTENSION_FAULTS if f in outcome[1])
    assert faults == set(_EXTENSION_FAULTS), faults


_EXTENSION_FAULTS = ("duplicate line", "self-loop", "unknown vertex",
                     "unknown directive", "invalid tree extension")


def test_label_errors():
    with pytest.raises(ParseError) as exc:
        parse_edgelist("A a b\nL c x\n")
    assert "unknown vertex" in str(exc.value)
    with pytest.raises(ParseError):
        parse_edgelist("A a b\nL a x\n")          # label on the tail
    with pytest.raises(ParseError):
        parse_edgelist("A a b\nL b x\nL b y\n")
    with pytest.raises(ParseError):
        parse_edgelist("A a b\nA a c\nL b x\nL c x\n")


def test_extension_round_trip(net_a):
    ext = default_extension(net_a)
    text = serialize_extension(ext)
    again = parse_extension(text, net_a)
    assert again.gamma == ext.gamma


def test_extension_errors(net_a):
    with pytest.raises(ParseError) as exc:
        parse_extension("E rho nowhere\n", net_a)
    assert "nowhere" in str(exc.value)
    with pytest.raises(InputError) as exc:
        # valid lines, but vertex d is missing from the tree
        ext = default_extension(net_a)
        text = "\n".join(line for line in serialize_extension(ext).splitlines()
                         if not line.endswith(" d"))
        parse_extension(text, net_a)
    assert "missing d" in str(exc.value)


def test_enewick_plain_tree():
    t = parse_enewick("((a,b),c);")
    assert classify(t).kind.value == "tree"
    # ids follow parse order
    want = Digraph([("n0", "n1"), ("n1", "n2"), ("n1", "n3"), ("n0", "n4")],
                   {"n2": "a", "n3": "b", "n4": "c"})
    assert t == want


def test_enewick_hybrid_merges_occurrences(net_a):
    n = parse_enewick("(((a,b),(c)#H1),(#H1,d));")
    assert classify(n).kind.value == "network"
    assert n.taxa == frozenset("abcd")
    retics = [v for v in n.vertices if n.in_degree(v) >= 2]
    assert len(retics) == 1
    # ids follow parse order, and a repeated hybrid takes none of its own
    want = Digraph([("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n2", "n4"),
                    ("n1", "n5"), ("n5", "n6"), ("n0", "n7"), ("n7", "n5"),
                    ("n7", "n8")], {"n3": "a", "n4": "b", "n6": "c", "n8": "d"})
    assert n == want


def test_enewick_discards_branch_lengths():
    t = parse_enewick("((a:1.5,b:2):0.1,c:3);")
    assert t.taxa == frozenset("abc")


def test_enewick_errors():
    with pytest.raises(ParseError):
        parse_enewick("((a,b),c)")          # missing semicolon
    with pytest.raises(ParseError):
        parse_enewick("((a,b,c);")          # unbalanced
    with pytest.raises(ParseError):
        parse_enewick("")
    with pytest.raises(ParseError):
        parse_enewick("((a)#H1,(b)#H1);")   # two child sets for one hybrid
    with pytest.raises(ParseError):
        parse_enewick("(a:x,b);")
    # A hybrid twice below one parent, and a hybrid below itself: each is
    # refused at the occurrence that makes the arc again or the self-loop.
    for doc, column, what in (("(#H1,#H1,(a,b)#H1);", 6, "of one parent twice"),
                              ("((#H1,b)#H1,c);", 3, "of itself")):
        with pytest.raises(ParseError, match=what) as info:
            parse_enewick(doc)
        assert (info.value.line, info.value.column) == (1, column)


def test_enewick_errors_carry_the_document_position():
    # Leading blanks, and the lines before a fault, count as in the document;
    # a line ends at \n, \r\n or a lone \r.  A repeated taxon is reported at
    # its second leaf.
    for doc, line, column, what in (
            ("   (a,b;", 1, 8, "expected ')'"),
            ("\n\n(a,\n b;", 4, 3, "expected ')'"),
            ("(a,\r\rb;", 3, 2, "expected ')'"),
            ("(a,\r\n\rb;", 3, 2, "expected ')'"),
            ("(a,\n a);", 2, 2, "taxon 'a' on two distinct leaves"),
            ("((a,b),a);", 1, 8, "taxon 'a' on two distinct leaves"),
            ("(,a);", 1, 2, "expected a subtree"),
            ("(a#,b);", 1, 3, "malformed hybrid tag"),
            ("(a:1e,b);", 1, 4, "bad branch length '1e'"),
            ("((a,b)c,d)e;\n  x", 2, 3, "trailing characters"),
            ("\n(#H1, #H1,(a,b)#H1);", 2, 7, "of one parent twice"),
            ("((#H1,b)\n#H1,\n c);", 1, 3, "of itself")):
        with pytest.raises(ParseError) as info:
            parse_enewick(doc)
        assert (info.value.line, info.value.column) == (line, column), doc
        assert what in str(info.value)


def test_serialize_is_sorted(net_a):
    text = serialize_edgelist(net_a, "x")
    lines = text.splitlines()
    assert lines[0] == "network x"
    arc_lines = [l for l in lines if l.startswith("A ")]
    assert arc_lines == sorted(arc_lines)
