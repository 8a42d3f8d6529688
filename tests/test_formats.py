"""Edge-list, extension, and eNewick parsing with positional diagnostics."""

import math
import os
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
    default_extension,
    parse_edgelist,
    parse_enewick,
    parse_extension,
    serialize_edgelist,
    serialize_extension,
)
from stc.digraph import classify
from stc.formats import _parse_edgelist_lines
from test_cli import _mutate

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


def _outcome(parse, text):
    """The graph that `parse` builds, down to the order of its maps, or the
    type, message, line and column of the error it raises."""
    try:
        g = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return (g.vertices, list(g._parents.items()), list(g._children.items()),
            list(g._labels.items()))


def _dressed(text):
    """`text` with a new header, comments, blank lines, tabs and CRLF
    endings, and with its lines reversed and no header."""
    lines = [line for line in text.splitlines() if not line.startswith("network ")]
    noisy = ["network  dressed # a header", "", "# a comment"]
    noisy += [f"\t{line}   # line {i}" if i % 2 else f"{line}\t" for i, line in
              enumerate(lines)]
    return ["\r\n".join(noisy) + "\r\n", "\n".join(reversed(lines))]


def test_the_bulk_parse_agrees_with_the_line_parser(suite, monkeypatch):
    # On a valid document the bulk path answers alone; on any other the
    # line parser names the first fault, so both give the same outcome.
    line_runs = []

    def lines(text):
        line_runs.append(text)
        return _parse_edgelist_lines(text)

    monkeypatch.setattr("stc.formats._parse_edgelist_lines", lines)
    valid = [DOC, *(doc for _, n, t, _ in suite[::5]
                    for doc in (serialize_edgelist(n, "n"), serialize_edgelist(t)))]
    for params in (GeneratorParams(12, 6, 0.5, 2, "yes-biased"),
                   GeneratorParams(30, 8, 0.3, 5, "unlabeled")):
        inst = stc.generate(params)
        valid += [inst.network_doc, inst.tree_doc]
    valid += [dressed for text in valid[:20] for dressed in _dressed(text)]
    for text in valid:
        graph = _outcome(parse_edgelist, text)
        assert not line_runs, text
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


def test_serialize_is_sorted(net_a):
    text = serialize_edgelist(net_a, "x")
    lines = text.splitlines()
    assert lines[0] == "network x"
    arc_lines = [l for l in lines if l.startswith("A ")]
    assert arc_lines == sorted(arc_lines)
