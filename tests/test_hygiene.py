"""Source hygiene: every name a module imports is used in that module,
package imports sit at the module head, every definition in the package
is reached from a command (or listed with its reason), and the float
tolerance has one source
(``scalars.current_eps``, scaled only by ``scalars.scaled_eps``) and no
hidden literal beside it."""

import ast
import re
from pathlib import Path

from aalg.almost_abelian import DATA_PREDICATES

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports names only to re-export them
SOURCES = ([p for p in sorted((ROOT / "src" / "aalg").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(path):
    """'file:line: name' for each imported name that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [hit for path in SOURCES for hit in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def local_relative_imports(path):
    """'file:line: ...' for each relative import inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(ROOT)
    return sorted({f"{rel}:{node.lineno}: from {'.' * node.level}{node.module or ''} import"
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, ast.ImportFrom) and node.level})


def test_package_imports_sit_at_the_module_head():
    """A module imports its siblings in the package at its head; only a
    lazy third-party import (numpy, kept off start-up) may sit in a
    function."""
    hits = [hit for path in sorted((ROOT / "src" / "aalg").glob("*.py"))
            for hit in local_relative_imports(path)]
    assert not hits, "function-local package imports:\n" + "\n".join(hits)


def tolerance_knobs(path):
    """'file:line: ...' for each function parameter named eps in the package
    and each assignment to DEFAULT_EPS (setattr included); scalars.py, the
    home of the tolerance, is exempt."""
    if path.name == "scalars.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(ROOT)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if "src" in rel.parts and any(x is not None and x.arg == "eps" for x in params):
                hits.append(f"{rel}:{node.lineno}: parameter eps")
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        names = {t.id if isinstance(t, ast.Name) else t.attr
                 for target in targets for t in ast.walk(target)
                 if isinstance(t, (ast.Name, ast.Attribute))}
        if isinstance(node, ast.Call):
            names |= {c.value for c in node.args if isinstance(c, ast.Constant)}
        if "DEFAULT_EPS" in names:
            hits.append(f"{rel}:{node.lineno}: writes DEFAULT_EPS")
    return hits


def test_one_source_of_the_float_tolerance():
    hits = [hit for path in SOURCES for hit in tolerance_knobs(path)]
    assert not hits, "use scalars.tolerance instead:\n" + "\n".join(hits)


# the float literals below 1e-3 in the package outside scalars.py, keyed
# (module, enclosing function or assigned module-level name, value), each
# with its reason: a float decision reads current_eps() or scalars.scaled_eps
SMALL_LITERALS = {
    ("lattice", "DEFAULT_EPS_INT", 1e-06): "the default of --eps-int, the probe's "
        "integrality threshold on polynomial coefficients, not a zero-test",
    ("lchk", "_admissible_exact", 1e-07): "the real-root filter of the float multiplicity "
        "table, frozen with the seed-2 sweep digest until the table reads the exact "
        "spectrum (ROADMAP item 1)",
}


def small_literals(path):
    """(module, where, value) of each float literal 0 < x < 1e-3 in one
    source file; where is the enclosing function, or the name a
    module-level assignment binds."""
    hits = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Assign) and where == "<module>":
            where = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value < 1e-3):
            hits.add((path.stem, where, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return hits


def test_no_hidden_tolerance_literals():
    """A float decision compares against the one tolerance: a small float
    literal outside scalars.py fails here until it is listed above with
    its reason."""
    found = set().union(*(small_literals(path)
                          for path in sorted((ROOT / "src" / "aalg").glob("*.py"))
                          if path.name != "scalars.py"))
    assert found == set(SMALL_LITERALS), (
        f"unlisted: {sorted(found - set(SMALL_LITERALS))}, "
        f"gone: {sorted(set(SMALL_LITERALS) - found)}")


DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scope_reads(scope):
    """(names, attributes) a scope reads when it runs: a module's or a
    class's statements, or a function's defaults and body.  The body of a
    definition inside it is a scope of its own (its decorators and defaults
    are read here), and annotations are skipped: they call nothing."""
    names, attributes = set(), set()

    def visit(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns") or (
                    field == "body" and node is not scope and isinstance(node, DEFINITION)):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child)

    visit(scope)
    return names, attributes


class CallGraph:
    """The package's definitions, keyed (module, qualified name), with what
    each one's scope reads.  A name read reaches the module-level functions
    and classes and the nested functions of that name; an attribute read
    reaches the methods and the module-level definitions of that name."""

    def __init__(self, paths):
        self.reads = {}
        self.by_name, self.by_attribute = {}, {}
        self.module_names, self.module_attributes = set(), set()
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names, attributes = scope_reads(tree)
            self.module_names |= names
            self.module_attributes |= attributes
            self._index(tree, path.stem, "", "module")

    def _index(self, node, module, prefix, where):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, DEFINITION):
                self._index(child, module, prefix, where)
                continue
            key = (module, prefix + child.name)
            self.reads[key] = scope_reads(child)
            if where != "class":
                self.by_name.setdefault(child.name, []).append(key)
            if where != "function":
                self.by_attribute.setdefault(child.name, []).append(key)
            self._index(child, module, f"{key[1]}.",
                        "class" if isinstance(child, ast.ClassDef) else "function")

    def walk(self, keys=(), names=(), attributes=()):
        """The definitions reached from ``keys`` and from reads of ``names``
        and ``attributes``, through what each reached scope reads."""
        todo = [*keys, *self._targets(names, attributes)]
        reached = set()
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                todo += self._targets(*self.reads[key])
        return reached

    def _targets(self, names, attributes):
        return ([key for name in names for key in self.by_name.get(name, ())]
                + [key for attr in attributes for key in self.by_attribute.get(attr, ())])


# route_verdicts calls getattr(H, f"is_{prop}_direct") for each key of
# almost_abelian.DATA_PREDICATES
GETATTR_ROOTS = {("hermitian", f"HermitianStructure.is_{prop}_direct")
                 for prop in DATA_PREDICATES}

# what bench/*.py reaches (its identifiers, its attributes and the functions
# bench/spans.py traces by name) and no command does; deleting one of them
# is a benchmark revision
BENCH_ONLY = {
    ("almost_abelian", "build_algebra"),
    ("almost_abelian", "_adapted_j"),
    ("almost_abelian", "adapted_J_matrix"),
    ("almost_abelian", "data_from_parts"),
    ("forms", "wedge_power"),
    ("lattice", "char_min_poly"),
    ("lchk", "canonical_form"),
    ("lie", "LieAlgebra.derived_algebra"),
    ("linalg", "column_space_basis"),
    ("linalg", "minpoly"),
    ("linalg", "solve"),
}

# the public API no command reaches, each with its reason; what these
# reach counts as reached
DECLARED_API = {
    ("forms", "KForm.basis"): "the k-form e^I by its indices, for tests and callers",
    ("documents", "render_manifest"):
        "the reference for the manifest round trip parse_manifest reads",
}


def bench_seeds():
    """(keys, names, attributes) bench/*.py reads: the spans.LAYERS entries
    and every identifier and attribute of its files."""
    names, attributes = set(), set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.name == "spans.py":
            layers = next(ast.literal_eval(node.value) for node in tree.body
                          if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    keys = {(layer, qual) for layer, quals in layers.items() for qual in quals}
    return keys, names, attributes


def show(keys):
    return sorted(".".join(key) for key in keys)


def test_every_definition_is_reached():
    """Each function, class and method of the package is reached from a
    command -- the cmd_* handlers, cli.main, catalog.verify_all, module
    statements and decorators (the COMMANDS and DATA_PREDICATES tables),
    dunder methods and GETATTR_ROOTS -- or is listed above: in BENCH_ONLY,
    which must equal what bench/ reaches beyond the commands, or in
    DECLARED_API (at most three names, each unreached and not bench's)."""
    graph = CallGraph(sorted((ROOT / "src" / "aalg").glob("*.py")))
    roots = {key for key in graph.reads
             if key in {("cli", "main"), ("catalog", "verify_all")} | GETATTR_ROOTS
             or (key[0] == "cli" and key[1].startswith("cmd_"))
             or re.fullmatch(r"__\w+__", key[1].rsplit(".", 1)[-1])}
    commands = graph.walk(roots, graph.module_names, graph.module_attributes)
    bench = graph.walk(*bench_seeds()) - commands
    unreached = set(graph.reads) - commands
    unlisted = unreached - bench - graph.walk(DECLARED_API)
    assert not unlisted, f"no command reaches: {show(unlisted)}"
    assert bench == BENCH_ONLY, (
        f"bench-only, unlisted: {show(bench - BENCH_ONLY)}, gone: {show(BENCH_ONLY - bench)}")
    assert len(DECLARED_API) <= 3
    needless = set(DECLARED_API) - (unreached - bench)
    assert not needless, f"DECLARED_API, reached anyway: {show(needless)}"


def environment_reads(path):
    """'file:line: ...' for each read of os.environ or os.getenv (aliases and
    ``from os import`` included), named by its key when that is a literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(ROOT)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, f"from os import {a.name}") for a in node.names
                      if a.name.startswith(("environ", "getenv"))]
        if not (isinstance(node, ast.Attribute) and node.attr.startswith(("environ", "getenv"))
                and isinstance(node.value, ast.Name) and node.value.id in os_names):
            continue
        func, up = node, parents[node]
        if isinstance(up, ast.Attribute) and up.attr == "get":   # os.environ.get(key)
            func, up = up, parents[up]
        key = None
        if isinstance(up, ast.Call) and up.func is func and up.args:
            key = up.args[0]
        elif isinstance(up, ast.Subscript) and up.value is node:  # os.environ[key]
            key = up.slice
        name = key.value if isinstance(key, ast.Constant) else "?"
        reads.append((node.lineno, f"os.{node.attr} {name}"))
    return [f"{rel}:{line}: {what}" for line, what in reads]


def test_only_the_cli_reads_the_environment():
    """No kernel switch slips in as an environment variable: the package's one
    environment read is AALG_EPSILON, in cli.py."""
    reads = [hit for path in sorted((ROOT / "src" / "aalg").glob("*.py"))
             for hit in environment_reads(path)]
    cli = [hit for hit in reads
           if re.fullmatch(r"src/aalg/cli\.py:\d+: os\.environ AALG_EPSILON", hit)]
    assert len(cli) == 1 and reads == cli, "environment reads:\n" + "\n".join(reads)


# the places that may ask which scalar kind they hold: the kind decision of
# the products, the algorithms that differ per kind, the scalar kernel
# itself, the document reader and writer, and the CLI's matrix reader
KIND_BRANCHES = {
    ("linalg", "_numerators"): "a product decides its kind: clear every operand or none",
    ("linalg", "_over"): "a product builds Fractions or floats",
    ("linalg", "rref"): "row-by-row reduction of integer rows vs float Gauss-Jordan",
    ("linalg", "is_positive_definite"): "reduction pivots vs float pivots without row exchanges",
    ("linalg", "charpoly"): "Faddeev-LeVerrier on integer numerators vs on floats",
    ("linalg", "rational_roots"): "exact coefficients only",
    ("lchk", "_admissible"): "exact and float LCHK verdicts",
    ("lie", "find_codim1_abelian_ideal"):
        "exact: xi in ann [L, L]; float: one pivoted system over the unit covectors",
    ("lattice", "char_min_poly"): "Faddeev-LeVerrier vs eigenvalue clusters",
    ("scalars", "kind_of"): "scalar kernel",
    ("scalars", "coerce"): "scalar kernel",
    ("scalars", "zero"): "scalar kernel",
    ("scalars", "one"): "scalar kernel",
    ("scalars", "is_zero"): "scalar kernel",
    ("scalars", "scaled_eps"): "scalar kernel: exact entries keep eps unscaled",
    ("scalars", "sqrt_scalar"): "scalar kernel",
    ("scalars", "fmt"): "scalar kernel",
    ("documents", "_document_kind"): "document kind inference",
    ("documents", "_on_kind"): "no decimal in an exact document",
    ("documents", "_parse_lines"): "the dimension is an integer literal",
    ("documents", "_render_terms"): "a unit rational factor stays implicit",
    ("cli", "_matrix_entry"): "JSON matrix reader",
    ("cli", "_parse_inline_matrix"): "one decimal entry makes the whole matrix float",
}


def kind_branches(path):
    """(module, enclosing function) of each comparison with EXACT or FLOAT
    and each isinstance(., Fraction or float) in one source file."""
    def named(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    hits = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare) and {"EXACT", "FLOAT"} & {
                named(x) for x in (node.left, *node.comparators)}:
            hits.add((path.stem, where))
        if isinstance(node, ast.Call) and named(node.func) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if {"Fraction", "float"} & {named(x) for x in kinds}:
                hits.add((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return hits


def test_kind_branches_are_listed():
    """A formula has one body for both scalar kinds: a new branch on the
    kind (an `if x.kind == EXACT:` beside a float loop) fails here until it
    is listed above with its reason."""
    found = set().union(*(kind_branches(path)
                          for path in sorted((ROOT / "src" / "aalg").glob("*.py"))))
    assert found == set(KIND_BRANCHES), (
        f"unlisted: {sorted(found - set(KIND_BRANCHES))}, "
        f"gone: {sorted(set(KIND_BRANCHES) - found)}")


# the places that may read LieAlgebra.brackets, the dict of bracket vectors:
# the integer view every computation reads, the coframe, the ideal basis of
# [L, L], the repr, and the keys of the Koszul table
BRACKETS_READERS = {
    ("lie", "constants"): "clears the brackets once into the integer table",
    ("lie", "coframe_differentials"): "de^k as 2-forms",
    ("lie", "coframe_terms"): "the keys of de^k beside the integer rows",
    ("lie", "derived_algebra"): "a basis of [L, L]",
    ("lie", "__repr__"): "the number of nonzero brackets",
    ("hermitian", "_lowered"): "the keys only, beside the integer rows",
}


def brackets_readers(path):
    """(module, enclosing function) of each read of an attribute named
    brackets in one source file."""
    hits = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "brackets"
                and isinstance(node.ctx, ast.Load)):
            hits.add((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return hits


def test_structure_constants_have_one_reader():
    """Computations on the structure constants read the algebra's integer
    view (LieAlgebra.constants); a new read of the brackets dict fails here
    until it is listed above with its reason."""
    found = set().union(*(brackets_readers(path)
                          for path in sorted((ROOT / "src" / "aalg").glob("*.py"))))
    assert found == set(BRACKETS_READERS), (
        f"unlisted: {sorted(found - set(BRACKETS_READERS))}, "
        f"gone: {sorted(set(BRACKETS_READERS) - found)}")
