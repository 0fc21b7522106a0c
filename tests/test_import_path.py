"""The package's import path stays light, and its value classes keep the
behaviour their dataclass forms had."""

import copy
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import bccover
from bccover import (
    BoundReport,
    CliqueTree,
    CoverMetadata,
    OracleBudget,
    OracleResult,
    complete_graph,
    lb_matching,
)
from bccover.gen import NamedInstance

# dataclasses pulls in inspect (and with it ast, dis and tokenize); fractions
# pulls in decimal; json and string are used by a few commands only; numpy
# is no dependency at all
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "json", "string",
         "numpy")

_IMPORT_CLI = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bccover.cli\n"
    "print(' '.join(sorted(set(sys.argv[2:]) & set(sys.modules))))\n"
)


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # -S: no site, so no .pth file can import one of them first and hide a
    # regression
    src = os.path.dirname(os.path.dirname(bccover.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_CLI, src, *HEAVY],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_records_keep_their_dataclass_repr():
    assert repr(OracleResult(2, 5)) == (
        "OracleResult(lower=2, upper=5, certificate=None, stats=None)"
    )
    assert repr(OracleBudget(14, 96, 10.0)) == (
        "OracleBudget(vertex_cap=14, edge_cap=96, time_cap=10.0)"
    )
    meta = CoverMetadata(1, 0, True)
    report = BoundReport(n=2, m=1, cover_meta=meta, inconsistent=True)
    assert "cover_meta" not in repr(report)
    assert repr(report).startswith("BoundReport(n=2, m=1, lb_log_mc=None, ")
    assert repr(report).endswith(", bp_window=None, inconsistent=True)")


def test_each_record_gets_a_fresh_default_dict():
    a, b = CoverMetadata(1, 0, True), CoverMetadata(1, 0, True)
    assert a.level_sizes_before is not b.level_sizes_before
    assert a.level_sizes_after is not b.level_sizes_after
    g = complete_graph(2)
    assert NamedInstance("x", g, ()).expected is not NamedInstance("x", g, ()).expected


def test_records_compare_and_hash_by_value():
    tree = CliqueTree((3, 6), ((0, 1),))
    same = CliqueTree(nodes=(3, 6), edges=((0, 1),))
    assert tree == same and hash(tree) == hash(same)
    assert tree != CliqueTree((3, 6), ())
    assert len({OracleBudget(1, 2, 3.0), OracleBudget(1, 2, 3.0)}) == 1
    assert OracleResult(1, 2) == OracleResult(1, 2, None, None)
    assert OracleResult(1, 2) != OracleResult(1, 3)
    with pytest.raises(TypeError):
        hash(OracleResult(1, 2))  # mutable records stay unhashable
    with pytest.raises(AttributeError):
        tree.nodes = ()
    assert copy.copy(tree) == tree
    assert copy.deepcopy(OracleResult(1, 2)) == OracleResult(1, 2)


def test_lb_matching_still_returns_a_fraction():
    value = lb_matching(complete_graph(5))
    assert isinstance(value, Fraction) and value == Fraction(2, 5)
    assert isinstance(lb_matching(complete_graph(1)), Fraction)
