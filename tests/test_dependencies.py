"""numpy is the only runtime dependency: the CLI's commands import nothing
else outside the standard library, though other packages are installed.
Within the package, the term extraction layer does not depend on the corpus
layer, no module imports a name it never reads, nothing is defined that
only the tests read (no function, class, constant, method or property), and
every word field of a line-entry file is read by one reader."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "newsbias"

# Runs in a fresh interpreter: an import hook refuses every top-level module
# outside the standard library, numpy and newsbias, then the commands run
# through cli.main. A refused import that newsbias itself makes is noted even
# if it is caught; those the standard library probes for (copy tries
# org.python.core) are its own affair.
GUARD = """
import json, sys

allowed = set(sys.stdlib_module_names) | {"numpy", "newsbias"}
refused = []


def importer():
    frame = sys._getframe(2)
    while frame.f_code.co_filename.startswith("<frozen"):
        frame = frame.f_back
    return frame.f_globals.get("__name__", "")


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            if importer().partition(".")[0] == "newsbias":
                refused.append(name)
            raise ModuleNotFoundError(f"{name} is not a runtime dependency", name=name)
        return None


sys.meta_path.insert(0, Refuse())
from newsbias import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "refused": refused}))
"""


def test_commands_import_only_numpy_and_the_standard_library(tmp_path):
    data = tmp_path / "data"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"articles": str(data / "articles.jsonl"), "registry": str(data / "registry.json")},
        "features": {"min_df": 2},
        "classifier": {"epochs": 3},
        "evaluate": {"k": 3},
        "sweep": {"schemes": ["unigram/article", "unigram/sentence"],
                  "classifiers": ["svm", "nb-bernoulli", "tree"]},
    }))
    common = ["--config", str(config), "--out"]
    commands = [
        ["gen-synth", "--out", str(data), "--n", "60", "--planted", "husband:0.3:0.01"],
        ["sweep", *common, str(tmp_path / "sweep")],
        ["rank", *common, str(tmp_path / "rank")],
        ["kwic", "husband", *common, str(tmp_path / "kwic")],
        ["stats", "--term", "husband", *common, str(tmp_path / "stats")],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", GUARD, json.dumps(commands)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == {"codes": [0] * len(commands), "refused": []}


def imported_from(module: ast.Module) -> set[str]:
    """The modules an import statement names, relative ones as written ("corpus" for "from .corpus import")."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            else:  # from . import corpus
                names.update(alias.name for alias in node.names)
    return names


def test_features_imports_nothing_from_corpus():
    # term extraction reads a stream and a section, so it needs no corpus type
    modules = imported_from(ast.parse((PACKAGE / "features.py").read_text(encoding="utf-8")))
    assert not modules & {"corpus", "newsbias.corpus"}, sorted(modules)


def unread_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads: not as a name, not as
    an attribute's base, and not inside a string annotation."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in (n for annotation in annotations if annotation for n in ast.walk(annotation)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1])
            if name not in read]


def test_unread_imports_are_found():
    assert unread_imports("import os\nfrom operator import attrgetter\nos.sep\n") == ["line 2: attrgetter"]
    assert unread_imports("from typing import Sequence\ndef f(x: 'Sequence[int]'): pass\n") == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py included: the package re-exports nothing, so each name is reached through its module
    found = {path.name: unread_imports(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


READS = {"splitlines", "read_text", "read_bytes"}


def input_reads(source: str) -> list[str]:
    """Calls that read or split a file's text outside errors.py's readers: a
    .splitlines(), .read_text() or .read_bytes() method call, or an open() or
    .open() whose mode is not a constant that writes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if isinstance(func, ast.Attribute) and name in READS:
            found.append(f"line {node.lineno}: .{name}()")
        elif name == "open":
            # the builtin takes the path first; Path.open takes the mode first
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[isinstance(func, ast.Name):][:1]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
            if not set(str(mode)) & set("wax"):
                found.append(f"line {node.lineno}: open({mode!r})")
    return found


def test_input_reads_are_found():
    source = ("import json\nfrom pathlib import Path\n"
              "Path('a').read_text()\n'x'.splitlines()\nopen('a')\nPath('b').open(encoding='utf-8')\n"
              "open('c', 'w')\nPath('d').open('a')\nPath('e').open(mode='x')\nPath('f').open(mode)\n")
    assert input_reads(source) == ["line 3: .read_text()", "line 4: .splitlines()", "line 5: open('r')",
                                   "line 6: open('r')", "line 10: open('r')"]


def test_only_errors_reads_input_files():
    # every input file is read and split by errors.read_text, read_lines or
    # read_entries, so a malformed or empty file meets the same checks everywhere
    found = {path.name: input_reads(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "errors.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def word_fields_read_alone(source: str) -> list[str]:
    """Functions that read a line-entry file (they call read_entries) without
    reading its words through read_word: they never call it, or they lowercase
    a value themselves, as parts[0].strip().lower() once read a lexicon word."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            funcs = [call.func for call in ast.walk(node) if isinstance(call, ast.Call)]
            names = {func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None) for func in funcs}
            if "read_entries" in names and ("read_word" not in names or names & {"lower", "casefold"}):
                found.append(f"line {node.lineno}: {node.name}")
    return found


def test_word_fields_read_alone_are_found():
    source = ("def a(p):\n    return {e.strip().lower() for _, e in read_entries(p, 'w')}\n"
              "def b(p):\n    return {read_word(e, w, 'x') for w, e in read_entries(p, 'w')}\n"
              "def c(p):\n    return {read_word(e.lower(), w, 'x') for w, e in read_entries(p, 'w')}\n"
              "def d(t):\n    return t.strip().lower()\n"
              "def e(p):\n    return {tokenize(e).tokens[0] for _, e in read_entries(p, 'w')}\n")
    assert word_fields_read_alone(source) == ["line 1: a", "line 5: c", "line 9: e"]


def test_every_word_field_is_read_by_read_word():
    # a stoplist, signal list, lexicon or POS lexicon word is one word token or
    # the file is refused, by the one rule, whichever file it stands in
    found = {path.name: word_fields_read_alone(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {}


def reads(tree: ast.AST) -> set[str]:
    """The names a tree reads: as a name, as an attribute, or as a string that is one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's, or those an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Top-level functions, classes and assigned names of the modules (name ->
    source), and the non-dunder methods and properties of their classes, that
    nothing else of the modules reads, nor any of the readers' sources. A
    top-level definition is read elsewhere when another top-level statement
    reads it; a method, when another top-level statement or another member of
    its class does."""
    read_elsewhere = set().union(*map(reads, map(ast.parse, readers)))
    units, defined = [], []  # (top-level statement, unit, names it reads); (module, own units, name)
    for name, source in modules.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            units += [(node, unit, reads(unit)) for unit in [node, *members]]
            defined += [(name, {node, *members}, defined_name) for defined_name in defined_names(node)]
            defined += [(name, {node, member}, member.name) for member in members
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")]
    return [f"{name}: {defined_name}" for name, own, defined_name in defined
            if defined_name not in read_elsewhere and not any(defined_name in names for _, unit, names in units
                                                              if unit not in own)]


def test_unread_definitions_are_found():
    modules = {"a.py": "def f(): return g()\ndef g(): return f\ndef h(): return h()\nclass C: pass\n",
               "b.py": "import a\ndef k(): pass\nx = a.C\nY: int = 1\nZ, W = 2, Y\nV = V + 1\na.T[x] = 3\n"}
    assert unread_definitions(modules, ["w(a, 'k', x, Z)"]) == ["a.py: h", "b.py: W", "b.py: V"]
    assert unread_definitions(modules, []) == ["a.py: h", "b.py: k", "b.py: Z", "b.py: W", "b.py: V"]


def test_unread_methods_are_found():
    # a sibling's or another statement's read counts, the method's own does not, and
    # neither does a member's read of its own class; dunders are left alone
    source = ("class C:\n    def __init__(self): self.a()\n    def a(self): return self.a\n"
              "    @property\n    def p(self): return 1\n    def q(self): return self.q()\n"
              "    def r(self): pass\n    def s(self): pass\n"
              "class E:\n    n = 0\n    def make(self): return E()\n"
              "x = C().s\n")
    assert unread_definitions({"c.py": source}, ["x.r, make"]) == ["c.py: p", "c.py: q", "c.py: E"]
    assert unread_definitions({"c.py": source}, []) == ["c.py: p", "c.py: q", "c.py: r", "c.py: E",
                                                        "c.py: make", "c.py: x"]


def test_src_defines_nothing_only_the_tests_read():
    # a function, class, constant, method or property counts as used when the package, a demo or the
    # benchmark's child reads it; the child wraps functions by their names given as strings
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8")
               for path in [*sorted((ROOT / "demos").glob("*.py")), ROOT / "perfbench" / "child.py"]]
    assert unread_definitions(modules, readers) == []
