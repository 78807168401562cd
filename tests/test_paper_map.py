"""Every code name in ``docs/PAPER_MAP.md``'s tables resolves against the tree.

The first column of each table names a part of the paper (or an
extension); every other column names code.  A backticked token there is
checked by its shape:

- ``path::symbol`` (``repro/core/post.py::build_post``): the file exists
  and defines the symbol (``symbol`` may be ``Class.member``);
- ``Class.member`` or ``Class::member``: some class of that name defines
  the member — a method, a class-level name, or an attribute assigned on
  ``self`` — itself or through a base class;
- a module path (``solver/nnf.py``, ``repro/cli/``, ``bench_solver.py``):
  the file or directory exists;
- a bare name (``SampleStore``): some function, class, module- or
  class-level name is defined with it, or the code uses it as a string
  (function-symbol names such as ``__mul__``).  An attribute assigned on
  ``self`` does not count: name it as ``Class.member``.  A bare private
  name right after a ``Class.member`` token in the same cell is a member
  of that class (``ConcolicEngine.run`` / ``_record_condition``).

Paths resolve from the repository root, ``src/`` or ``src/repro/``; a
bare file name may live anywhere under the scanned directories.  ``*``
in a name is a wildcard.  Tokens of any other shape (formulas such as
``f(c)+k``) are not code names and are skipped.
"""

import ast
import fnmatch
import os
import re
from collections import defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PAPER_MAP = os.path.join(ROOT, "docs", "PAPER_MAP.md")
SCANNED = ("src", "tests", "benchmarks", "examples")
PATH_ROOTS = (ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "src", "repro"))

NAME = r"[A-Za-z_][\w*]*"
PATH = r"[\w.-]+(?:/[\w.-]+)*(?:\.py|/)"
PATH_SYMBOL = re.compile(rf"({PATH})::({NAME}(?:(?:\.|::){NAME})?)")
MEMBER = re.compile(rf"({NAME})(?:\.|::)({NAME})")
MODULE_PATH = re.compile(PATH)
BARE = re.compile(NAME)


def _code_tokens():
    """The code names of every table row, shorthand members qualified."""
    out = []
    with open(PAPER_MAP, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("|"):
                continue
            for cell in line.strip().strip("|").split("|")[1:]:
                cls = None
                for token in re.findall(r"`([^`]+)`", cell):
                    if PATH_SYMBOL.fullmatch(token) or MODULE_PATH.fullmatch(token):
                        cls = None
                    elif MEMBER.fullmatch(token):
                        cls = MEMBER.fullmatch(token).group(1)
                    elif BARE.fullmatch(token):
                        if cls and token.startswith("_"):
                            token = f"{cls}.{token}"
                        else:
                            cls = None
                    else:
                        continue
                    out.append(token)
    return out


class _Index:
    """Names defined in the scanned Python files, from their syntax trees."""

    def __init__(self):
        self.files = {}  # path -> top-level names and classes
        self.classes = defaultdict(list)  # name -> [(members, base names)]
        self.names = set()
        self.basenames = set()
        for top in SCANNED:
            for dirpath, _dirs, filenames in os.walk(os.path.join(ROOT, top)):
                for filename in filenames:
                    self.basenames.add(filename)
                    if filename.endswith(".py"):
                        self._scan(os.path.join(dirpath, filename))

    def _scan(self, path):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        top, classes = _defined(tree.body), {}
        self.names |= top
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                class_level = _defined(node.body)
                members = set(class_level)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(
                        sub.ctx, ast.Store
                    ) and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        members.add(sub.attr)
                bases = [
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in node.bases
                ]
                self.classes[node.name].append((members, bases))
                classes[node.name] = members
                self.names |= class_level | {node.name}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.names.add(node.value)
        self.files[os.path.realpath(path)] = (top, classes)

    def has_member(self, cls, member, seen=()):
        for members, bases in self.classes.get(cls, ()):
            if _match(member, members):
                return True
            if any(
                self.has_member(base, member, seen + (cls,))
                for base in bases
                if base not in seen
            ):
                return True
        return False

    def resolve(self, token):
        match = PATH_SYMBOL.fullmatch(token)
        if match:
            path = _find_path(match.group(1))
            if path is None or os.path.realpath(path) not in self.files:
                return False
            top, classes = self.files[os.path.realpath(path)]
            cls, _, member = match.group(2).replace("::", ".").partition(".")
            if not member:
                return _match(cls, top)
            return cls in classes and self.has_member(cls, member)
        if MODULE_PATH.fullmatch(token):
            return token in self.basenames or _find_path(token) is not None
        match = MEMBER.fullmatch(token)
        if match:
            return self.has_member(*match.groups())
        return _match(token, self.names)


def _defined(body):
    """Function, class and assigned names of one statement list."""
    out = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def _match(pattern, names):
    if "*" in pattern:
        return bool(fnmatch.filter(names, pattern))
    return pattern in names


def _find_path(relative):
    for root in PATH_ROOTS:
        path = os.path.join(root, relative)
        if os.path.exists(path):
            return path
    return None


def test_every_code_name_resolves():
    tokens = _code_tokens()
    # every shape occurs, so no rule above is vacuous
    assert any(PATH_SYMBOL.fullmatch(t) for t in tokens)
    assert any(MODULE_PATH.fullmatch(t) for t in tokens)
    assert any(MEMBER.fullmatch(t) for t in tokens)
    assert any(BARE.fullmatch(t) for t in tokens)
    index = _Index()
    missing = sorted({t for t in tokens if not index.resolve(t)})
    assert missing == [], f"PAPER_MAP.md names code that does not exist: {missing}"
