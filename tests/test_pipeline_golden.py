"""Golden record of the cover and partition pipeline on small seeded graphs.

``data/pipeline_golden.json`` holds, per graph, the text of
``cover_cochordal``'s cover and of ``find_partition``'s partition, plus the
cover's ranking r and level sizes.  Any change to what the pipeline builds
shows up here as a diff.  After a deliberate change of output, rewrite the
record with ``PYTHONPATH=src python tests/test_pipeline_golden.py``.
"""

import json
import pathlib

import pytest

from bccover import (
    Graph,
    bicliques_to_text,
    cover_cochordal,
    find_partition,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
)
from bccover.chordal import complement_clique_tree

GOLDEN = pathlib.Path(__file__).parent / "data" / "pipeline_golden.json"


def golden_graphs():
    """Name -> graph, every one co-chordal with at most 40 vertices."""
    # fig1_c4c is left out: its complement is a 4-cycle, not chordal
    graphs = {name: gen_fig_graph(name).graph
              for name in ("fig1_k5", "fig2", "fig3")}
    graphs["copath-9"] = gen_copath(9).graph
    graphs["copath-40"] = gen_copath(40).graph
    graphs["cowindmill-6-3"] = gen_cowindmill(6, 3).graph
    for n, density, seed in ((24, 0.3, 1), (32, 0.5, 2), (40, 0.15, 3)):
        graphs["cochordal-%d-%s-s%d" % (n, density, seed)] = (
            gen_random_chordal(n, density, seed).complement())
    # complement: a path, a triangle and an edge, so its clique tree is a forest
    split = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]
    graphs["split-complement"] = Graph(9, split).complement()
    return graphs


def pipeline_record(g):
    cover, meta = cover_cochordal(g)
    tree = complement_clique_tree(g)
    return {
        "cover": bicliques_to_text(cover),
        "partition": bicliques_to_text(find_partition(tree)),
        "mc_complement": meta.mc_complement,
        "ranking_r": meta.ranking_r,
        "level_sizes_before": [meta.level_sizes_before[k]
                               for k in sorted(meta.level_sizes_before)],
        "level_sizes_after": [meta.level_sizes_after[k]
                              for k in sorted(meta.level_sizes_after)],
        "verified": meta.verified,
    }


def test_golden_record_lists_every_graph():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(golden_graphs())


@pytest.mark.parametrize("name", sorted(golden_graphs()))
def test_pipeline_matches_golden_record(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert pipeline_record(golden_graphs()[name]) == expected


if __name__ == "__main__":
    records = {name: pipeline_record(g) for name, g in golden_graphs().items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
