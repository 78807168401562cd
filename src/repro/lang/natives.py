"""Registry of native (opaque) functions callable from MiniC programs.

Native functions model the paper's "unknown functions": hash functions,
crypto, OS and library calls whose code is *not available* to symbolic
execution.  The concrete interpreter calls straight into the registered
Python callable; the concolic machine treats the call as a source of
imprecision handled according to its concretization mode (Section 3) or as
an uninterpreted function (Section 4).

Each native is deterministic with a fixed integer arity — exactly the
contract Theorem 3's proof requires.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..errors import InterpError

__all__ = ["NativeFunction", "NativeRegistry"]


@dataclass(frozen=True)
class NativeFunction:
    """A named opaque function with fixed arity."""

    name: str
    arity: int
    fn: Callable[..., int]

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise InterpError(
                f"native {self.name} expects {self.arity} args, got {len(args)}"
            )
        result = self.fn(*args)
        if not isinstance(result, int) or isinstance(result, bool):
            raise InterpError(
                f"native {self.name} returned non-int {result!r}"
            )
        return result


class NativeRegistry:
    """A collection of native functions visible to a program.

    Usage::

        natives = NativeRegistry()
        natives.register("hash", lambda y: (y * 2654435761) % 1024)
        # or as a decorator:
        @natives.register_fn
        def crc8(x):
            ...
    """

    def __init__(self) -> None:
        self._fns: Dict[str, NativeFunction] = {}
        #: call log: (name, args, result) triples of the most recent run;
        #: the concolic machine reads these to build IOF samples.
        self.call_log: list = []

    def register(
        self, name: str, fn: Callable[..., int], arity: Optional[int] = None
    ) -> NativeFunction:
        """Register ``fn`` under ``name``; arity is inferred when omitted."""
        if arity is None:
            arity = len(inspect.signature(fn).parameters)
        if name in self._fns:
            raise InterpError(f"native {name!r} already registered")
        native = NativeFunction(name, arity, fn)
        self._fns[name] = native
        return native

    def register_fn(self, fn: Callable[..., int]) -> Callable[..., int]:
        """Decorator form of :meth:`register` using the function's name."""
        self.register(fn.__name__, fn)
        return fn

    def __contains__(self, name: str) -> bool:
        return name in self._fns

    def __iter__(self) -> Iterator[NativeFunction]:
        return iter(self._fns.values())

    def get(self, name: str) -> Optional[NativeFunction]:
        return self._fns.get(name)

    def lookup(self, name: str) -> NativeFunction:
        native = self._fns.get(name)
        if native is None:
            raise InterpError(f"unknown native function {name!r}")
        return native

    def call(self, name: str, args: Tuple[int, ...]) -> int:
        """Invoke a native, recording the input-output pair in the log."""
        native = self.lookup(name)
        result = native(*args)
        self.call_log.append((name, tuple(args), result))
        return result
