"""Every example program from the paper, as MiniC source.

Each entry pairs the MiniC transliteration with the section of the paper it
comes from and the concrete setup (initial inputs, hash behaviour) the
paper assumes.  The experiment suite and benchmarks consume these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..lang.natives import NativeRegistry
from ..lang.parser import parse_program
from ..lang.ast import Program

__all__ = [
    "PaperExample",
    "OBSCURE_SRC",
    "FOO_SRC",
    "FOO_BIS_SRC",
    "BAR_SRC",
    "PUB_SRC",
    "EX5_SRC",
    "EX6_SRC",
    "DELAYED_SRC",
    "PAPER_EXAMPLES",
    "paper_hash",
    "make_paper_natives",
    "churn_source",
]


def paper_hash(y: int) -> int:
    """A concrete 'unknown' hash matching the paper's narrative values.

    The paper assumes hash(42) = 567, hash(33) = 123 (Example 3) and
    hash(1) = 5 (Example 4); values elsewhere are an arbitrary-but-
    deterministic mix the solver cannot see into.
    """
    if y == 42:
        return 567
    if y == 33:
        return 123
    if y == 1:
        return 5
    return (y * 2654435761 + 40503) % 65521


def make_paper_natives() -> NativeRegistry:
    """Fresh registry exposing :func:`paper_hash` as native ``hash``."""
    registry = NativeRegistry()
    registry.register("hash", paper_hash, arity=1)
    return registry


def churn_source(iterations: int, mult: int, mod: int) -> str:
    """An execution-bound program over :func:`make_paper_natives`.

    ``churn(x, y)`` runs the all-concrete step
    ``acc = acc + ((acc * mult + i) % mod)`` ``iterations`` times, then
    checks two input guards through the opaque ``hash`` native, so its
    concolic execution is almost all shadow over plain ints.  The
    standing benchmark's exec-churn workload has the same shape.
    """
    return f"""
int churn(int x, int y) {{
    int acc = 0;
    int i = 0;
    while (i < {iterations}) {{
        acc = acc + ((acc * {mult} + i) % {mod});
        i = i + 1;
    }}
    if (x == hash(y + acc - acc)) {{
        error("churn reached");
    }}
    if (hash(x) == hash(y) + 1) {{
        error("churn linked");
    }}
    return acc;
}}
"""


OBSCURE_SRC = """
// Paper Section 1: the motivating example. Static test generation is
// "helpless"; dynamic test generation covers both branches.
int obscure(int x, int y) {
    if (x == hash(y)) {
        error("obscure reached");   // return -1 in the paper
    }
    return 0;
}
"""

FOO_SRC = """
// Paper Sections 3.2 / 3.3 / Example 7: the divergence & multi-step example.
int foo(int x, int y) {
    if (x == hash(y)) {
        if (y == 10) {
            error("foo bug");       // return -1 in the paper
        }
    }
    return 0;
}
"""

FOO_BIS_SRC = """
// Paper Example 2: unsound concretization finds this via a "good
// divergence"; sound concretization provably cannot.
int foo_bis(int x, int y) {
    if (x != hash(y)) {
        if (y == 10) {
            error("foo_bis bug");
        }
    }
    return 0;
}
"""

BAR_SRC = """
// Paper Example 3: unsound concretization diverges; higher-order test
// generation proves no test exists (the formula is invalid).
int bar(int x, int y) {
    if (x == hash(y) && y == hash(x)) {
        error("bar bug");
    }
    return 0;
}
"""

PUB_SRC = """
// Paper Example 4: without samples the POST formula is invalid; the
// recorded pair makes it valid.
int pub(int x, int y) {
    if (hash(x) > 0 && y == 10) {
        error("pub bug");
    }
    return 0;
}
"""

EX5_SRC = """
// Paper Example 5 (as a program): covering the then branch needs the
// EUF axiom strategy "set x = y".
int euf_eq(int x, int y) {
    if (hash(x) == hash(y)) {
        error("euf_eq reached");
    }
    return 0;
}
"""

EX6_SRC = """
// Paper Example 6 (as a program): f(x) = f(y) + 1 requires the sampled
// antecedent to prove validity.
int succ_link(int x, int y) {
    if (hash(x) == hash(y) + 1) {
        error("succ_link reached");
    }
    return 0;
}
"""

DELAYED_SRC = """
// Paper Section 3.3 (end): the delayed-concretization example. The hash
// value is computed but never tested, so delayed sound concretization
// should still negate (y == 10).
int delayed(int x, int y) {
    int v = hash(y);
    if (y == 10) {
        error("delayed bug");
    }
    return v;
}
"""


@dataclass
class PaperExample:
    """A paper example: program, setup, and the claimed outcomes."""

    name: str
    section: str
    source: str
    entry: str
    initial_inputs: Dict[str, int]
    #: outcome claims, per engine, used by tests and EXPERIMENTS.md:
    #: mode name -> dict(finds_error=..., diverges=...)
    claims: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def program(self) -> Program:
        return parse_program(self.source)

    def natives(self) -> NativeRegistry:
        return make_paper_natives()


PAPER_EXAMPLES: Dict[str, PaperExample] = {
    "obscure": PaperExample(
        name="obscure",
        section="§1",
        source=OBSCURE_SRC,
        entry="obscure",
        initial_inputs={"x": 33, "y": 42},
        claims={
            "unsound": {"finds_error": True},
            "sound": {"finds_error": True},
            "higher_order": {"finds_error": True},
            "static": {"finds_error": False},
        },
    ),
    "foo": PaperExample(
        name="foo",
        section="§3.2/§3.3/Ex.7",
        source=FOO_SRC,
        entry="foo",
        initial_inputs={"x": 33, "y": 42},
        claims={
            "unsound": {"finds_error": False, "diverges": True},
            "sound": {"finds_error": False, "diverges": False},
            "higher_order": {"finds_error": True, "multi_step": True},
        },
    ),
    "foo_bis": PaperExample(
        name="foo_bis",
        section="Ex.2",
        source=FOO_BIS_SRC,
        entry="foo_bis",
        initial_inputs={"x": 33, "y": 42},
        claims={
            "unsound": {"finds_error": True, "diverges": True},  # good divergence
            "sound": {"finds_error": False},
            "higher_order": {"finds_error": True},
        },
    ),
    "bar": PaperExample(
        name="bar",
        section="Ex.3",
        source=BAR_SRC,
        entry="bar",
        initial_inputs={"x": 33, "y": 42},
        claims={
            "unsound": {"finds_error": False, "diverges": True},  # bad divergence
            "higher_order": {"finds_error": False, "diverges": False},
        },
    ),
    "pub": PaperExample(
        name="pub",
        section="Ex.4",
        source=PUB_SRC,
        entry="pub",
        initial_inputs={"x": 1, "y": 2},
        claims={
            "sound": {"finds_error": True},
            "higher_order": {"finds_error": True},
            "higher_order_no_antecedent": {"finds_error": False},
        },
    ),
    "euf_eq": PaperExample(
        name="euf_eq",
        section="Ex.5",
        source=EX5_SRC,
        entry="euf_eq",
        initial_inputs={"x": 3, "y": 4},
        claims={
            "sound": {"finds_error": False},
            "higher_order": {"finds_error": True},
        },
    ),
    "succ_link": PaperExample(
        name="succ_link",
        section="Ex.6",
        source=EX6_SRC,
        entry="succ_link",
        initial_inputs={"x": 3, "y": 4},
        claims={
            "sound": {"finds_error": False},
        },
    ),
    "delayed": PaperExample(
        name="delayed",
        section="§3.3 end",
        source=DELAYED_SRC,
        entry="delayed",
        initial_inputs={"x": 0, "y": 42},
        claims={
            "sound_delayed": {"finds_error": True},
            "higher_order": {"finds_error": True},
        },
    ),
}
