"""The held-out check of the benchmark's ``oracle-reduce`` workload takes
the answer of a ``c5-list`` entry from ``hom.find_homomorphism`` itself;
here every such entry is settled by the independent backtracking of
``conftest.reference_hom_exists`` instead.  ``perfbench/workloads.py`` is
imported as it stands and only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import reference_hom_exists
from hcolkit.graphs import make_cycle
from hcolkit.hom import find_homomorphism

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
# its dataclasses look their module up by name
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("part", ["main", "held-out"])
def test_c5_list_answers_match_the_reference_search(part):
    c5 = make_cycle(5)
    entries = [
        e for e in workloads.OracleReduce().corpus(part) if e.stratum == "c5-list"
    ]
    answers = []
    for e in entries:
        g, lists = e.data["graph"], e.data["lists"]
        found = find_homomorphism(g, c5, lists=lists)
        assert (found is not None) == reference_hom_exists(g, c5, lists), e.key
        if found is not None:
            assert found.check(lists), e.key
        answers.append(found is not None)
    assert len(entries) == 50 and True in answers and False in answers
