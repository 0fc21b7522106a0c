"""Golden record of the bound report and the two exact oracles.

``data/report_golden.json`` holds, per graph, ``report_to_json_dict`` of a
default-budget ``full_report`` and, for ``exact_bc`` and ``exact_bp`` each
called on its own, the window, the certificate's text and the stats
(``null`` where the oracle's caps refuse the graph).  The graphs are the
pipeline golden graphs, the paper's ``fig1_c4c`` and twenty G(12, 0.5)
graphs, which are not co-chordal.  Any change to what a report or an oracle
returns shows up here as a diff.  After a deliberate change of output,
rewrite the record with ``PYTHONPATH=src python tests/test_report_golden.py``.
"""

import json
import pathlib
import random

import pytest

from bccover import (
    BudgetExceededError,
    bicliques_to_text,
    exact_bc,
    exact_bp,
    full_report,
    gen_fig_graph,
    report_to_json_dict,
)
from helpers import er_graph
from test_pipeline_golden import golden_graphs

GOLDEN = pathlib.Path(__file__).parent / "data" / "report_golden.json"


def report_graphs():
    """Name -> graph, 31 of them; the oracles refuse the four largest."""
    graphs = dict(golden_graphs())
    graphs["fig1_c4c"] = gen_fig_graph("fig1_c4c").graph
    for k in range(20):
        graphs["er-12-0.5-s%d" % k] = er_graph(12, 0.5, random.Random(k))
    return graphs


def oracle_record(oracle, g):
    try:
        result = oracle(g)
    except BudgetExceededError:
        return None
    return [result.lower, result.upper, bicliques_to_text(result.certificate),
            result.stats]


def report_record(g):
    return {
        "report": report_to_json_dict(full_report(g)),
        "bc": oracle_record(exact_bc, g),
        "bp": oracle_record(exact_bp, g),
    }


def test_report_golden_lists_every_graph():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(report_graphs())


@pytest.mark.parametrize("name", sorted(report_graphs()))
def test_report_matches_golden_record(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert report_record(report_graphs()[name]) == expected


if __name__ == "__main__":
    records = {name: report_record(g) for name, g in report_graphs().items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
