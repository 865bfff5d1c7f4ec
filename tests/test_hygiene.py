"""Source hygiene: every name a module imports is used in that module,
every definition in the package is used somewhere, and the float tolerance
has one source (``scalars.current_eps``)."""

import ast
import re
from collections import Counter
from pathlib import Path

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


def identifiers_in(tree):
    """Counter of the identifiers and attribute names an AST reads."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def named_in(tree):
    """Counter of the names an AST reads: identifiers, attributes, and the
    words of string constants other than docstrings (traced names, getattr)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    names = identifiers_in(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_definition_is_used():
    """Each function, class and method of the package is named somewhere
    in src, tests or bench outside its own body (dunder methods exempt)."""
    paths = sorted((ROOT / "src" / "aalg").glob("*.py"))
    everywhere = paths + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in everywhere}
    uses = sum((named_in(tree) for tree in trees.values()), Counter())
    unused = []
    for path in paths:
        for node in ast.walk(trees[path]):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")
                    and uses[node.name] <= named_in(node)[node.name]):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not unused, "defined but never used:\n" + "\n".join(unused)


# the definitions with no caller inside the package, each kept for a reason
# outside it: traced by bench/spans.py (whose --trace pass fails on a missing
# name), called from bench/, reached by getattr, or public API that only the
# tests call.  Deleting one of the traced or imported names is a benchmark
# revision (ROADMAP item 7).
NO_LIBRARY_CALLER = {
    ("almost_abelian", "build_algebra"): "called by bench/workloads.py, traced by bench/spans.py",
    ("almost_abelian", "data_from_parts"): "imported by bench/gen.py, called by bench/workloads.py",
    ("documents", "render_manifest"): "public API used only by tests: the manifest round trip",
    ("forms", "KForm.basis"): "public API used only by tests",
    ("forms", "KForm.evaluate"): "public API used only by tests",
    ("forms", "wedge_power"): "traced by bench/spans.py",
    ("hermitian", "HermitianStructure.is_kahler_direct"): "reached by getattr in route_verdicts",
    ("hermitian", "HermitianStructure.is_balanced_direct"): "reached by getattr in route_verdicts",
    ("hermitian", "HermitianStructure.is_lcb_direct"): "reached by getattr in route_verdicts",
    ("hermitian", "HermitianStructure.is_skt_direct"): "reached by getattr in route_verdicts",
    ("hermitian", "HermitianStructure.bismut_connection"): "public API used only by tests",
    ("lattice", "char_min_poly"): "traced by bench/spans.py",
    ("lchk", "canonical_form"): "called by bench/workloads.py, traced by bench/spans.py",
    ("lie", "LieAlgebra.abelian"): "public API used only by tests",
    ("lie", "LieAlgebra.bracket"): "public API used only by tests",
    ("lie", "LieAlgebra.derived_algebra"): "traced by bench/spans.py",
    ("linalg", "solve"): "traced by bench/spans.py",
}


def definitions(tree, prefix=""):
    """(qualified name, node, is_method) of each function, class and method
    of a module, nested ones included (dunder names exempt)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
                yield prefix + node.name, node, isinstance(tree, ast.ClassDef)
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def attributes_in(tree):
    """Counter of the attribute names an AST reads."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_definition_has_a_library_caller():
    """Each definition of the package is read somewhere in src/aalg outside
    its own body (a string naming it does not count), or is listed above
    with its reason; a listed name that gains a caller leaves the list.  A
    function or class counts as read by any identifier of its name, a
    method only by an attribute of its name (a local variable that shares
    it is no caller)."""
    paths = sorted((ROOT / "src" / "aalg").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    names = sum((identifiers_in(tree) for tree in trees.values()), Counter())
    attributes = sum((attributes_in(tree) for tree in trees.values()), Counter())
    found = set()
    for path in paths:
        for qualname, node, is_method in definitions(trees[path]):
            uses, reads = (attributes, attributes_in) if is_method else (names, identifiers_in)
            if uses[node.name] <= reads(node)[node.name]:
                found.add((path.stem, qualname))
    assert found == set(NO_LIBRARY_CALLER), (
        f"unlisted: {sorted(found - set(NO_LIBRARY_CALLER))}, "
        f"gone: {sorted(set(NO_LIBRARY_CALLER) - found)}")


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
    ("lie", "jacobi_witness"): "float Jacobi tolerance",
    ("hermitian", "nijenhuis"): "float Nijenhuis tolerance",
    ("lattice", "char_min_poly"): "Faddeev-LeVerrier vs eigenvalue clusters",
    ("scalars", "kind_of"): "scalar kernel",
    ("scalars", "coerce"): "scalar kernel",
    ("scalars", "zero"): "scalar kernel",
    ("scalars", "one"): "scalar kernel",
    ("scalars", "is_zero"): "scalar kernel",
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
