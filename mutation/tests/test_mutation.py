"""Tests of the mutation runner's patches.  Run with: python3 -m pytest mutation/tests -q"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutation_run", Path(__file__).resolve().parents[1] / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_every_patch_applies_once_to_src():
    assert len({m.id for m in run.MUTANTS}) == len(run.MUTANTS)
    for m in run.MUTANTS:
        assert (run.SRC / "tflocal" / m.file).read_text().count(m.old) == 1, m.id
        assert m.new != m.old, m.id


def test_axis_order_fault_targets_the_one_overlap_primitive():
    # every block placement reads lattice.overlap, so one patch there reverses
    # the axis order of all of them
    n1 = next(m for m in run.MUTANTS if m.id == "N1")
    assert n1.file == "lattice.py"
    text = (run.SRC / "tflocal" / n1.file).read_text()
    start = text.index("def overlap(")
    assert start < text.index(n1.old) < text.index("\ndef ", start + 1)


def test_apply_refuses_a_missing_or_repeated_target(tmp_path):
    path = tmp_path / "f.py"
    path.write_text("a = 1\nb = 1\n")
    run.apply(path, "a = 1", "a = 2")
    assert path.read_text() == "a = 2\nb = 1\n"
    for old in ("c = 1", " = "):
        with pytest.raises(ValueError, match="not once"):
            run.apply(path, old, "x")
