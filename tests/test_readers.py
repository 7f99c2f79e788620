"""Every file reader refuses malformed text with ValueError or an HcolError.

The text is built from the formats' own tag tokens, small ints and
junk, so that it reaches past the first line of each reader.  The ints
stay small: a graph header allocates one adjacency row per vertex it
announces.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_parse_graph_lines
from hcolkit import graphs
from hcolkit.errors import HcolError
from hcolkit.graphs import Graph, make_cycle, make_path, parse_graph_lines, read_graph
from hcolkit.kernels import (
    VertexCoverInstance,
    combinatorial_kernel,
    read_instance,
    read_kernel_result,
    write_kernel_result,
)
from hcolkit.reductions import read_dimacs, read_list_instance
from hcolkit.reps import rep_from_json

TOKENS = st.one_of(
    st.sampled_from(["L", "X", "S", "A", "STATS", "p", "cnf", "c", "#", "{", "}", "[", "]"]),
    st.sampled_from(['"p":', '"n":', ",", "-", "--1", "x", "1.5", "null", "²"]),
    st.integers(-3, 12).map(str),
)
TAGS = st.sampled_from(["L", "X", "S", "A", "STATS", "p cnf"])
LINE = st.one_of(
    st.tuples(TAGS, st.lists(TOKENS, max_size=4)).map(lambda t: " ".join([t[0], *t[1]])),
    st.lists(TOKENS, max_size=6).map(" ".join),
)
# most texts open with a well-formed graph header, so the tag lines are read
HEADER = st.tuples(st.integers(0, 6), st.integers(0, 2)).map(lambda nm: f"{nm[0]} {nm[1]}")
TEXT = st.tuples(st.one_of(HEADER, LINE), st.lists(LINE, max_size=8)).map(
    lambda t: "\n".join([t[0], *t[1]])
)

READERS = {
    "read_graph": read_graph,
    "read_instance": read_instance,
    "read_list_instance": read_list_instance,
    "read_dimacs": read_dimacs,
    "rep_from_json": lambda text: rep_from_json(text, make_cycle(3)),
    "read_kernel_result": read_kernel_result,
}


@given(st.sampled_from(sorted(READERS)), TEXT)
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_value_or_hcol_errors(reader, text):
    try:
        READERS[reader](text)
    except (ValueError, HcolError):
        pass


# each graph-based format as (the name its refusals give, a well-formed file)
TAGGED_FORMATS = {
    "read_graph": ("graph file", "2 1\n0 1\nL 0 a\n"),
    "read_instance": ("instance file", "2 1\n0 1\nX 0\n"),
    "read_list_instance": ("list instance", "2 1\n0 1\nA 0 1\n"),
    "read_kernel_result": (
        "kernel file",
        write_kernel_result(combinatorial_kernel(VertexCoverInstance(Graph(2, [(0, 1)]), (0,)), 1)),
    ),
}


@pytest.mark.parametrize("reader", sorted(TAGGED_FORMATS))
def test_unknown_tag_is_refused_by_name(reader):
    what, text = TAGGED_FORMATS[reader]
    READERS[reader](text)
    with pytest.raises(ValueError) as exc:
        READERS[reader](text + "Q 1\n")
    assert str(exc.value) == f"unexpected line in {what}: 'Q'"


@pytest.mark.parametrize("reader", sorted(TAGGED_FORMATS))
def test_edge_count_is_reported_before_an_unknown_tag(reader):
    _, text = TAGGED_FORMATS[reader]
    header, rest = text.split("\n", 1)
    n, m = map(int, header.split())
    with pytest.raises(ValueError) as exc:
        READERS[reader](f"{n} {m + 1}\n{rest}Q 1\n")
    assert str(exc.value) == f"header promises {m + 1} edges, found {m}"


KERNEL_TEXT = write_kernel_result(
    combinatorial_kernel(VertexCoverInstance(make_path(5), (1, 3)), 1)
)

# (reader, a file that repeats a tagged line, the repeated line as refused)
REPEATS = [
    ("read_instance", "2 1\n0 1\nX 0\nX 1\n", "instance file: 'X'"),
    ("read_list_instance", "3 1\n0 1\nA 2 0\nA 2 1\n", "list instance: 'A 2'"),
    # vertices are compared as numbers
    ("read_list_instance", "3 1\n0 1\nA 2 0\nA 02 1\n", "list instance: 'A 2'"),
    ("read_kernel_result", KERNEL_TEXT + "X 0 1\n", "kernel file: 'X'"),
    ("read_kernel_result", KERNEL_TEXT + "S 3 1\n", "kernel file: 'S 3'"),
    (
        "read_kernel_result",
        KERNEL_TEXT + KERNEL_TEXT.splitlines()[-1].replace('"q":1', '"q":9') + "\n",
        "kernel file: 'STATS'",
    ),
]
REPEAT_IDS = [repeated for _, _, repeated in REPEATS]


@pytest.mark.parametrize("reader, text, repeated", REPEATS, ids=REPEAT_IDS)
def test_repeated_tagged_line_is_refused(reader, text, repeated):
    with pytest.raises(ValueError) as exc:
        READERS[reader](text)
    assert str(exc.value) == f"repeated line in {repeated}"


@pytest.mark.parametrize(
    "reader, text, repeated",
    [
        ("read_graph", "2 0\nL 0 a\nL 0 b\n", "graph file: 'L 0'"),
        # vertices are compared as numbers, and an empty label counts
        ("read_graph", "2 1\nL 1\n0 1\nL 01 b\n", "graph file: 'L 1'"),
        ("read_instance", "2 1\n0 1\nL 0 a\nX 0\nL 0 a\n", "instance file: 'L 0'"),
    ],
)
def test_repeated_label_line_is_refused_in_the_scan(reader, text, repeated):
    # a label line is read with the edges, so its repeat is refused there,
    # before the edge count is checked, as a label line without a vertex is
    with pytest.raises(ValueError) as exc:
        READERS[reader](text)
    assert str(exc.value) == f"repeated line in {repeated}"
    header, rest = text.split("\n", 1)
    with pytest.raises(ValueError) as exc:
        READERS[reader](header + "0\n" + rest)
    assert str(exc.value) == f"repeated line in {repeated}"


@pytest.mark.parametrize("reader, text, repeated", REPEATS, ids=REPEAT_IDS)
def test_edge_count_is_reported_before_a_repeated_line(reader, text, repeated):
    header, rest = text.split("\n", 1)
    n, m = map(int, header.split())
    with pytest.raises(ValueError) as exc:
        READERS[reader](f"{n} {m + 1}\n{rest}")
    assert str(exc.value) == f"header promises {m + 1} edges, found {m}"


def _fuzz_graph_lines(rng: random.Random) -> tuple[list[str], dict]:
    """The lines of a graph file with labels and tagged lines, put through
    a few seeded faults, and the keywords to parse them with."""
    n = rng.randrange(0, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [f"{u} {v}" for u, v in pairs if rng.random() < 0.4]
    labels = [f"L {v} {rng.choice(['a', 'b c', '{1,2}'])}" for v in range(n) if rng.random() < 0.3]
    tagged = [rng.choice(["X 0 1", "A 0 1 2", "X", "Q 1"]) for _ in range(rng.randrange(3))]
    header = [str(n), str(len(edges))]
    head, rest = [], edges + labels + tagged
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.randrange(12)
        at = rng.randrange(len(rest) + 1)
        if kind == 0:  # a comment or a blank line, often inside the edge block
            rest.insert(rng.randrange(len(edges) + 1), rng.choice(["# c", "", "  ", "\t"]))
        elif kind == 1 and rest:  # padding around a line
            rest[at - 1] = rng.choice([" ", "\t", ""]) + rest[at - 1] + rng.choice([" ", "\t", "\r", ""])
        elif kind == 2 and rest:  # a number as leading zeros, a Unicode digit or negative
            tokens = rest[at - 1].split(" ")
            i = rng.randrange(len(tokens))
            if tokens[i].isdigit():
                tokens[i] = rng.choice(["0" + tokens[i], "٣", "-1", "²", "0"])
            rest[at - 1] = " ".join(tokens)
        elif kind == 3:  # a label before the edges, or before the header
            (head if rng.random() < 0.3 else rest).insert(0, f"L {rng.randrange(n + 1)} early")
        elif kind == 4:  # an edge line after the tagged lines
            rest.append(f"{rng.randrange(n + 1)} {rng.randrange(n + 1)}")
        elif kind == 5:  # a header of 1 or 3 tokens
            header = header[:1] if rng.random() < 0.5 else header + ["7"]
        elif kind == 6:  # m above or below the edge lines
            header[1:2] = [str(max(0, len(edges) + rng.choice((-2, -1, 1, 2))))]
        elif kind == 7 and edges:  # a duplicate edge
            rest.insert(at, rng.choice(edges))
        elif kind == 8:  # a loop or an out-of-range endpoint, counted in the header
            v = rng.randrange(n + 1)
            rest.insert(rng.randrange(len(edges) + 1), f"{v} {rng.choice([v, n, n + 2])}")
            header[1:2] = [str(len(edges) + 1)]
        elif kind == 9:  # an edge line of 1 or 3 tokens, or with a tab
            rest.insert(at, rng.choice(["0", "0 1 2", "0\t1", "0  1"]))
        elif kind == 10 and len(rest) >= 2:  # two lines in one string, as a caller may pass
            i = rng.randrange(min(len(edges) + 1, len(rest) - 1))
            rest[i : i + 2] = [rest[i] + "\n" + rest[i + 1]]
        else:  # a header as leading zeros or a Unicode digit
            header[0] = rng.choice(["0" + header[0], "٣", "-1"])
    built = head + [" ".join(header)] + rest
    # the lines of a text as str.splitlines gives them, as a split at
    # "\n" gives them (a "\r" stays at the end of each), or as built
    text = rng.choice(["\n", "\r\n"]).join(built) + rng.choice(["\n", ""])
    lines = rng.choice([text.splitlines(), text.split("\n"), built])
    kwargs = {"tags": rng.choice([("X",), ("A", "X"), ("A", "Q", "X")])}
    if rng.random() < 0.3:
        kwargs["max_vertices"] = rng.randrange(0, 8)
    return lines, kwargs


def _parse_outcome(parse, lines, kwargs):
    try:
        g, extras = parse(lines, **kwargs)
    except (ValueError, HcolError) as exc:
        return type(exc), str(exc)
    return g, g.labels, extras


def _parse_path_verdicts(rng, cases, lines_of, monkeypatch) -> Counter:
    """Parse `cases` texts from `lines_of(rng)` with both readers, assert
    the same outcome, and count each (verdict, block converted) pair; a
    block is converted when ``graphs._block_edges`` is called."""
    calls = Counter()
    convert = graphs._block_edges

    def counted(block):
        calls["block"] += 1
        return convert(block)

    monkeypatch.setattr(graphs, "_block_edges", counted)
    seen = Counter()
    for _ in range(cases):
        lines, kwargs = lines_of(rng)
        before = calls["block"]
        outcome = _parse_outcome(parse_graph_lines, lines, kwargs)
        assert outcome == _parse_outcome(reference_parse_graph_lines, lines, kwargs), lines
        seen["refused" if isinstance(outcome[0], type) else "accepted", calls["block"] > before] += 1
    return seen


def test_parse_graph_lines_matches_the_line_by_line_scan(monkeypatch):
    # on texts whose edge block is converted at once and texts scanned
    # line by line: the same graph, labels and tagged lines, or the same refusal
    seen = _parse_path_verdicts(random.Random(31), 6_000, _fuzz_graph_lines, monkeypatch)
    assert min(seen[verdict, block] for verdict in ("accepted", "refused") for block in (False, True)) > 400, seen


def _fuzz_lines_after_comments(rng: random.Random) -> tuple[list[str], dict]:
    """A fuzz text of `_fuzz_graph_lines` behind ``#`` comments and blank
    lines, with its first other line, the header, padded."""
    lines, kwargs = _fuzz_graph_lines(rng)
    lead = [rng.choice(["# c", "", "  ", "\t", "#1 2"]) for _ in range(rng.randrange(1, 4))]
    at = next((i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")), None)
    if at is not None:
        lines[at] = rng.choice([" ", "\t", ""]) + lines[at] + rng.choice([" ", "\t", "\r"])
    return lead + lines, kwargs


def test_parse_graph_lines_after_leading_comments_matches_the_scan(monkeypatch):
    # a header behind comments and blank lines, padded, still lets the
    # edge block after it be converted at once, with the scan's outcome
    seen = _parse_path_verdicts(random.Random(32), 2_000, _fuzz_lines_after_comments, monkeypatch)
    assert min(seen[verdict, block] for verdict in ("accepted", "refused") for block in (False, True)) > 100, seen
