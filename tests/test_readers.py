"""Every file reader refuses malformed text with ValueError or an HcolError.

The text is built from the formats' own tag tokens, small ints and
junk, so that it reaches past the first line of each reader.  The ints
stay small: a graph header allocates one adjacency row per vertex it
announces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolkit.errors import HcolError
from hcolkit.graphs import Graph, make_cycle, make_path, read_graph
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


@pytest.mark.parametrize("reader, text, repeated", REPEATS, ids=REPEAT_IDS)
def test_edge_count_is_reported_before_a_repeated_line(reader, text, repeated):
    header, rest = text.split("\n", 1)
    n, m = map(int, header.split())
    with pytest.raises(ValueError) as exc:
        READERS[reader](f"{n} {m + 1}\n{rest}")
    assert str(exc.value) == f"header promises {m + 1} edges, found {m}"
