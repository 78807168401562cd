"""The digest matrix's table (``benchmarks/digest_matrix.py``), checked
without running a campaign: every pair of axis values is covered or
excluded with a reason, no cell is redundant, and every pin in
``benchmarks/paper_suite_digests.json`` is checked by some cell."""

import importlib.util
import itertools
import json
import os

import pytest

MATRIX_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "digest_matrix.py"
)


def _load_matrix():
    spec = importlib.util.spec_from_file_location("digest_matrix", MATRIX_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


matrix = _load_matrix()


def _pairs(cell):
    values = list(cell._asdict().items())
    return {frozenset(pair) for pair in itertools.combinations(values, 2)}


def _required_pairs():
    required = set()
    for first, second in itertools.combinations(matrix.AXES, 2):
        for a in matrix.AXES[first]:
            for b in matrix.AXES[second]:
                required.add(frozenset({(first, a), (second, b)}))
    return required - {frozenset(pair) for pair in matrix.EXCLUDED}


def _pins():
    with open(matrix.PINS_PATH, "r", encoding="utf-8") as handle:
        pins = json.load(handle)
    return {
        (group, name)
        for group, entries in pins.items()
        if not group.startswith("_")
        for name in entries
    }, pins


class TestMatrixTable:
    def test_cells_take_only_axis_values(self):
        assert tuple(matrix.AXES) == matrix.Cell._fields
        for cell in matrix.CELLS:
            for axis, value in cell._asdict().items():
                assert value in matrix.AXES[axis], (cell, axis)

    def test_every_pair_is_covered_or_excluded(self):
        covered = set().union(*(_pairs(cell) for cell in matrix.CELLS))
        assert _required_pairs() - covered == set()

    def test_excluded_pairs_have_reasons_and_no_cell(self):
        for pair, reason in matrix.EXCLUDED.items():
            assert reason
            for axis, value in pair:
                assert value in matrix.AXES[axis]
            assert all(
                frozenset(pair) not in _pairs(cell) for cell in matrix.CELLS
            )

    @pytest.mark.parametrize("index", range(len(matrix.CELLS)))
    def test_deleting_any_cell_uncovers_a_pair(self, index):
        rest = matrix.CELLS[:index] + matrix.CELLS[index + 1:]
        covered = set().union(*(_pairs(cell) for cell in rest))
        assert _required_pairs() - covered

    def test_every_pin_is_checked(self):
        all_pins, pins = _pins()
        checked = set()
        for cell in matrix.CELLS:
            checked.update(matrix.cell_pins(cell, pins))
        for name in matrix.CHAOS_ROWS:
            checked.update(matrix.chaos_pins(name))
        for app in matrix.APP_ROWS:
            checked.update(matrix.app_pins(app, pins))
        assert checked == all_pins
