"""Tests for the IOF sample store and POST(pc) construction."""

import pytest

from repro.core import (
    SampleStore,
    alternate_constraint,
    build_post,
    negatable_indices,
)
from repro.errors import ReproError
from repro.solver import TermManager
from repro.solver.validity import Sample
from repro.symbolic.concolic import PathCondition


@pytest.fixture()
def tm():
    return TermManager()


@pytest.fixture()
def h(tm):
    return tm.mk_function("h", 1)


class TestSampleStore:
    def test_add_and_lookup(self, tm, h):
        store = SampleStore()
        assert store.add(Sample(h, (42,), 567))
        assert store.has(h, (42,))
        assert store.value(h, (42,)) == 567
        assert len(store) == 1

    def test_duplicate_is_noop(self, tm, h):
        store = SampleStore()
        store.add(Sample(h, (42,), 567))
        assert not store.add(Sample(h, (42,), 567))
        assert len(store) == 1

    def test_nondeterminism_rejected(self, tm, h):
        store = SampleStore()
        store.add(Sample(h, (42,), 567))
        with pytest.raises(ReproError):
            store.add(Sample(h, (42,), 568))

    def test_add_all_counts_new(self, tm, h):
        store = SampleStore()
        count = store.add_all(
            [Sample(h, (1,), 10), Sample(h, (2,), 20), Sample(h, (1,), 10)]
        )
        assert count == 2

    def test_same_args_of_distinct_functions_kept_apart(self, tm, h):
        g = tm.mk_function("g", 1)
        store = SampleStore()
        assert store.add(Sample(h, (1,), 10))
        assert store.add(Sample(g, (1,), 3))  # not a conflict with h(1)
        assert store.value(h, (1,)) == 10
        assert store.value(g, (1,)) == 3
        assert not store.has(g, (2,))
        assert store.as_table() == {(h, (1,)): 10, (g, (1,)): 3}

    def test_persistence_roundtrip(self, tmp_path, tm, h):
        store = SampleStore()
        store.add(Sample(h, (42,), 567))
        g = tm.mk_function("g", 2)
        store.add(Sample(g, (1, 2), 3))
        path = str(tmp_path / "samples.json")
        store.save(path)

        tm2 = TermManager()
        loaded = SampleStore.load(path, tm2)
        assert len(loaded) == 2
        h2 = tm2.mk_function("h", 1)
        assert loaded.value(h2, (42,)) == 567

    def test_str_preview(self, tm, h):
        store = SampleStore()
        for i in range(12):
            store.add(Sample(h, (i,), i * 2))
        text = str(store)
        assert "12 total" in text


class TestNegatableIndices:
    def test_pins_excluded(self, tm):
        x = tm.mk_var("x")
        pcs = [
            PathCondition(term=tm.mk_eq(x, tm.mk_int(1)), is_concretization=True),
            PathCondition(term=tm.mk_gt(x, tm.mk_int(0))),
            PathCondition(term=tm.mk_lt(x, tm.mk_int(9))),
        ]
        assert negatable_indices(pcs) == [1, 2]

    def test_empty(self):
        assert negatable_indices([]) == []


class TestAlternateConstraint:
    def test_prefix_and_negation(self, tm):
        x = tm.mk_var("x")
        pcs = [
            PathCondition(term=tm.mk_gt(x, tm.mk_int(0))),
            PathCondition(term=tm.mk_lt(x, tm.mk_int(9))),
        ]
        alt = alternate_constraint(tm, pcs, 1)
        expected = tm.mk_and(
            tm.mk_gt(x, tm.mk_int(0)), tm.mk_not(tm.mk_lt(x, tm.mk_int(9)))
        )
        assert alt is expected

    def test_first_condition(self, tm):
        x = tm.mk_var("x")
        pcs = [PathCondition(term=tm.mk_gt(x, tm.mk_int(0)))]
        alt = alternate_constraint(tm, pcs, 0)
        assert alt is tm.mk_not(tm.mk_gt(x, tm.mk_int(0)))

    def test_pin_kept_in_prefix(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        pin = PathCondition(
            term=tm.mk_eq(y, tm.mk_int(42)), is_concretization=True
        )
        cond = PathCondition(term=tm.mk_gt(x, tm.mk_int(0)))
        alt = alternate_constraint(tm, [pin, cond], 1)
        assert "(= y 42)" in str(alt)

    def test_cannot_negate_pin(self, tm):
        y = tm.mk_var("y")
        pin = PathCondition(
            term=tm.mk_eq(y, tm.mk_int(42)), is_concretization=True
        )
        with pytest.raises(ValueError):
            alternate_constraint(tm, [pin], 0)


class TestPostFormula:
    def test_render_with_antecedent(self, tm, h):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        pcs = [
            PathCondition(term=tm.mk_not(tm.mk_eq(x, tm.mk_app(h, [y]))))
        ]
        post = build_post(tm, pcs, 0, [x, y], [Sample(h, (42,), 567)])
        text = post.render()
        assert text.startswith("∃x, y :")
        assert "h(42)=567" in text
        assert "⇒" in text

    def test_render_without_antecedent(self, tm):
        x = tm.mk_var("x")
        pcs = [PathCondition(term=tm.mk_gt(x, tm.mk_int(0)))]
        post = build_post(tm, pcs, 0, [x], [])
        assert "⇒" not in post.render()
