"""Rules every module of the package, and every test oracle, follows."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gaborbox"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements; invariants raise GaborBoxError
    # subclasses instead
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_compares_instead_of_taking_signs_of_differences():
    # `x < y` and `_cmp` decide an order without building x - y
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sign" and isinstance(node.func.value, ast.BinOp)
                  and isinstance(node.func.value.op, ast.Sub)]
    assert found == []


GRID_ORACLE = ("GridModel", "build_grid_model", "_pieces", "_reaching", "_S_flags", "_D_flags",
               "grid_frame_decision")


def _classifier_names():
    """"classifier" and every name its module body defines."""
    classifier = ast.parse((SRC / "classifier.py").read_text(encoding="utf-8"))
    return {"classifier"} | {
        node.name for node in classifier.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        target.id for node in classifier.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }


def test_grid_oracle_names_nothing_from_the_classifier():
    # the grid route cross-checks the closed forms, so it must not use them
    forbidden = _classifier_names()
    oracle = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in oracle.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(GRID_ORACLE) <= set(defs)
    found = []
    for name in GRID_ORACLE:
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.ImportFrom):
                found += [f"{name}: from {node.module} import"] * (
                    node.module is None or "classifier" in node.module)
                found += [f"{name}: imports {alias.name}" for alias in node.names
                          if alias.name in forbidden]
            elif isinstance(node, ast.Import):
                found += [f"{name}: import {alias.name}" for alias in node.names
                          if "classifier" in alias.name]
            elif isinstance(node, ast.Name) and node.id in forbidden:
                found.append(f"{name}: names {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in forbidden:
                found.append(f"{name}: names .{node.attr}")
    assert found == []
    # the model reads the grid indices the triple already holds, in its form
    assert any(isinstance(node, ast.Attribute) and node.attr == "form"
               for node in ast.walk(defs["build_grid_model"]))


def test_dynsys_names_nothing_from_the_oracles_or_the_classifier():
    # compute_S is the propagation route of the cross-check: it must not
    # borrow the grid oracle's orbit walk or the closed forms, the
    # classifier's (u, v) solve of the XII membership equation included
    forbidden = {"oracle"} | set(GRID_ORACLE) | _classifier_names()
    tree = ast.parse((SRC / "dynsys.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"from {node.module} import"] * (
                node.module is None or bool(forbidden & set(node.module.split("."))))
            found += [f"imports {alias.name}" for alias in node.names
                      if alias.name in forbidden]
        elif isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if forbidden & set(alias.name.split("."))]
        elif isinstance(node, ast.Name) and node.id in forbidden:
            found.append(f"names {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in forbidden:
            found.append(f"names .{node.attr}")
    assert found == []


def _functions(path):
    """Every function (methods and nested ones included) defined in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _namings(node, name):
    return sum(isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node))


def test_dynsys_maps_grid_units_back_in_one_function():
    # D, the measure identity and the surgery work on S in grid units; one
    # helper, _real, decides how a count of grid units becomes an ExactReal,
    # by the one map from a triple's form back to the reals, which the
    # replay of the XII hole starts also takes
    tree = ast.parse((SRC / "dynsys.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    naming = {name for name, fn in functions.items() if _namings(fn, "form_value")}
    assert naming == {"_real", "_hole_starts"}
    assert _namings(tree, "form_value") == sum(
        _namings(functions[name], "form_value") for name in naming)
    assert _namings(tree, "grid_value") == _namings(tree, "pair_value") == 0


def test_only_form_value_reads_the_scale_of_a_form():
    # every compare reads only the pairs of a triple's form; the scale beta
    # is read by the map back to the reals alone, whether as an attribute or
    # as the second field of an unpacked form
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in _functions(path):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "beta":
                    found.add(f"{path.name}:{fn.name}")
                elif (isinstance(node, ast.Assign) and ast.unparse(node.value).endswith("form")
                      and isinstance(node.targets[0], ast.Tuple)
                      and ast.unparse(node.targets[0].elts[1]) != "_"):
                    found.add(f"{path.name}:{fn.name}: unpacks beta")
    assert found == {"lattice.py:form_value"}


def test_only_lattice_names_the_retired_triple_shapes():
    # a triple holds its integers in one form, NormalizedTriple.form; the
    # grid units and the pairs over L it replaced have no names left
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in ("GridUnits", "TauPairs")
                  or isinstance(node, ast.Attribute) and node.attr in ("units", "pairs")
                  or isinstance(node, ast.alias) and node.name in ("GridUnits", "TauPairs")]
    assert found == []


def test_xiii_march_builds_no_set_and_keeps_no_holes():
    # the XIII march hands each step's front on as it goes: compute_S sums
    # their lengths, and only a nonempty S or a chain read collects them.  So
    # the march names no PeriodicSet, is a generator that returns nothing,
    # and every list it builds is rebuilt each step inside its loop
    tree = ast.parse((SRC / "dynsys.py").read_text(encoding="utf-8"))
    march = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_propagate_rational")
    assert not any(isinstance(node, ast.Name) and node.id == "PeriodicSet"
                   or isinstance(node, ast.Attribute) and node.attr == "PeriodicSet"
                   for node in ast.walk(march))
    assert any(isinstance(node, ast.Yield) for node in ast.walk(march))
    assert all(node.value is None for node in ast.walk(march) if isinstance(node, ast.Return))
    loops = [node for node in march.body if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    in_loop = {id(node) for node in ast.walk(loops[0])}
    lists = [node for node in ast.walk(march)
             if isinstance(node, (ast.List, ast.ListComp))
             or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "list"]
    assert lists and all(id(node) in in_loop for node in lists)


def test_dynsys_converts_S_to_the_reals_only_when_read():
    # the stages work in the units of the S they are handed and the report
    # keeps S in the units of its march, so only reading a report's S or a
    # chain of holes maps a set from grid units to the reals
    tree = ast.parse((SRC / "dynsys.py").read_text(encoding="utf-8"))

    def namings(node):
        return sum(isinstance(sub, ast.Name) and sub.id == "_grid_reals"
                   for sub in ast.walk(node))

    functions = {f"{cls.name}.{fn.name}": fn for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    functions.update((fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef))
    assert "_grid_reals" in functions
    naming = {name for name, fn in functions.items() if namings(fn)}
    assert naming == {"InvariantSetReport.S", "hole_chain"}
    # and nothing outside those two (a module-level statement) names it either
    assert namings(tree) == sum(namings(functions[name]) for name in naming)


def test_only_the_pair_builder_takes_a_common_denominator():
    # every triple is put over one denominator L once, by lattice.normalize;
    # the walk, the XII search and the XII march read the pairs of its form,
    # and the classifier solves for (u, v) on them, not on Fractions
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Name) and node.id == "lcm"
                    or isinstance(node, ast.Attribute) and node.attr == "lcm"
                    for node in ast.walk(fn)):
                found.add(f"{path.name}:{fn.name}")
        found |= {f"{path.name}:import" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names if alias.name.split(".")[-1] == "lcm"}
    assert found == {"lattice.py:normalize", "lattice.py:import"}
    classifier = ast.parse((SRC / "classifier.py").read_text(encoding="utf-8"))
    assert "_basis_coords" not in {node.name for node in ast.walk(classifier)
                                   if isinstance(node, ast.FunctionDef)}


def test_only_exactnum_reads_or_refines_an_enclosure():
    # every sign and floor over pi goes through exactnum, which refines under
    # the PrecisionExhausted cap
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "exactnum.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("enclosure", "refine")]
    assert found == []


def test_periodic_set_bisects_in_one_method():
    # restrict, intersect, union and minus all rest on the one window cut; a
    # second search of the intervals would have to name bisect again
    tree = ast.parse((SRC / "lattice.py").read_text(encoding="utf-8"))

    def namings(node):
        return sum(isinstance(sub, ast.Name) and sub.id in ("bisect_left", "bisect_right")
                   or isinstance(sub, ast.Attribute) and sub.attr in ("bisect_left", "bisect_right")
                   for sub in ast.walk(node))

    methods = {f"{cls.name}.{fn.name}": fn for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    assert {name for name, fn in methods.items() if namings(fn)} == {"PeriodicSet._cut"}
    # and nothing outside the methods (a module-level helper) names it either
    assert namings(tree) == namings(methods["PeriodicSet._cut"])


def test_classifier_counts_no_window_by_a_generator_over_k():
    # both certificate searches count their window by one difference of two
    # floor sums; a loop or a comprehension over the k = 1..s would count it
    # in O(s)
    tree = ast.parse((SRC / "classifier.py").read_text(encoding="utf-8"))
    found = [node.iter.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension))
             and ast.unparse(node.iter) in ("range(s)", "range(1, s + 1)")]
    assert found == []
    callers = {fn.name for fn in _functions(SRC / "classifier.py")
               if _namings(fn, "_window_count")}
    assert callers == {"_search_obstruction_irrational", "_xiii_candidates"}


def test_only_the_diagram_walk_names_region_xiv():
    # one walk decides every region; a second walk would have to name XIV
    naming = {fn.name for fn in _functions(SRC / "lattice.py") for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and node.attr == "XIV"}
    assert naming == {"_walk_diagram"}


def test_only_one_classifier_function_names_the_search_regions():
    # XII and XIII are decided by a certificate search that also tells whether
    # S is nonempty; every other region is read from the module's tables
    naming = {fn.name for fn in _functions(SRC / "classifier.py") for node in ast.walk(fn)
              if isinstance(node, ast.Attribute) and node.attr in ("XII", "XIII")}
    assert naming == {"classify_with_S_existence"}


def _calls(node, name):
    """The calls in the tree of a function or a method called `name`."""
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))]


def test_classifier_normalizes_only_in_classify():
    # a triple is normalized once by classify, and each grid neighbour of an
    # off-grid c once by classify_off_grid
    callers = {fn.name for fn in _functions(SRC / "classifier.py") if _calls(fn, "normalize")}
    assert callers == {"classify", "classify_off_grid"}


def test_only_normalize_builds_a_triple():
    # every triple comes from lattice.normalize, so its fields, its form and
    # its region are read off (a, b, c) in one place
    builds = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
              for node in _calls(ast.parse(path.read_text(encoding="utf-8")), "NormalizedTriple")]
    normalize = next(fn for fn in _functions(SRC / "lattice.py") if fn.name == "normalize")
    assert builds and builds == [f"lattice.py:{node.lineno}"
                                 for node in _calls(normalize, "NormalizedTriple")]


def test_classifier_reads_no_c0_or_c1_value():
    # the decisions compare the integer pairs of the triple's form; c0 and c1
    # as ExactReals are built only when something outside the classifier
    # reads them
    reads = [f"classifier.py:{node.lineno}"
             for node in ast.walk(ast.parse((SRC / "classifier.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("c0", "c1")]
    assert reads == []


def test_certificate_searches_solve_on_integers():
    # the XII window conditions are two floors cutting s, with no per-s sign,
    # and a measure-critical tuple is a pair equality, with no value built;
    # case 8 counts modulo N, with p divided out once
    functions = {fn.name: fn for fn in _functions(SRC / "classifier.py")}
    xii = functions["_search_obstruction_irrational"]
    assert [len(_calls(xii, name)) for name in ("_sign", "form_value")] == [0, 0]
    assert _namings(functions["_xiii_candidates"], "Np") == 0


# the live searches, walks and marches a test oracle stands in for; the
# references of the two certificate searches count through the live
# _window_count and list divisors by the live _divisors_above on purpose,
# so that a test can tally the counts of both walks, and neither matches
LIVE_DECISIONS = re.compile(r"cond_\w+|classify\w*|_search_obstruction_irrational"
                            r"|_xiii_candidates|_xiii_search|_walk_diagram|_propagate_\w+"
                            r"|compute_S")


def test_reference_modules_import_no_live_decision():
    # a reference that ran the live code it stands in for would hold that
    # code to itself: no reference_*.py imports a live decision or reads one
    # off an imported module
    found = []
    for path in sorted(TESTS.glob("reference_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        live = set()  # what names a gaborbox module or an import from one
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gaborbox"):
                live |= {alias.asname or alias.name for alias in node.names}
                found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                          for alias in node.names if LIVE_DECISIONS.fullmatch(alias.name)]
            elif isinstance(node, ast.Import):
                live |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name.startswith("gaborbox")}
        found += [f"{path.name}:{node.lineno}: reads .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and LIVE_DECISIONS.fullmatch(node.attr)
                  and ast.unparse(node.value).split(".")[0] in live]
    assert found == []
    assert not any(LIVE_DECISIONS.fullmatch(name) for name in ("_window_count", "_divisors_above"))


def _library_api():
    """The names in README's library-API list: `module.function` or `Class.method`."""
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    after = readme.split("these are library API", 1)[1]
    bullets = after[after.index("\n- "):].split("\n\n")[0]  # the first list after it
    return set(re.findall(r"^- `(\w+\.\w+)\(", bullets, re.M))


def test_every_public_name_has_a_caller_or_is_library_api():
    # a public function, class or method that only tests reach is a package
    # view kept for them: it is named somewhere in the package, the scripts
    # or the bench harness, or README lists it as library API
    named = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((TESTS.parent / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.split(".")[-1])
    api = _library_api()
    assert api
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = [(path.stem, node)] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [(node.name, sub) for sub in node.body if isinstance(sub, ast.FunctionDef)]
            found += [f"{owner}.{d.name}" for owner, d in defs if not d.name.startswith("_")
                      and d.name not in named and f"{owner}.{d.name}" not in api]
    assert found == []


def _imported_modules(tree):
    """(top-level module name, line) for every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def _package_imports(module):
    """file:line of every import of `module` in the package."""
    return {f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
            for name, line in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
            if name == module}


def test_package_imports_no_mpmath():
    # pi is enclosed by an integer Machin sum; the package needs no mpmath
    assert _package_imports("mpmath") == set()


def test_numpy_is_imported_only_by_the_numeric_diagnostic():
    oracle = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    diagnostic = next(node for node in oracle.body if isinstance(node, ast.FunctionDef)
                      and node.name == "numeric_frame_bounds")
    allowed = {f"oracle.py:{line}" for name, line in _imported_modules(diagnostic)
               if name == "numpy"}
    assert allowed
    assert _package_imports("numpy") == allowed


def test_pi_decisions_leave_mpmath_unloaded():
    # a fresh interpreter, so an import made by another test cannot hide one
    script = (
        "import contextlib, io, sys\n"
        "from fractions import Fraction as F\n"
        "from gaborbox import classify, pi_context\n"
        "from gaborbox import cli\n"
        "P = pi_context()\n"
        "classify(P.num(0, F(1, 4)), P.num(1), P.num(23, F(-11, 2)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['selftest', '--qmax', '2'])\n"
        "print(rc, 'mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_package_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis, and each decorator builds its
    # methods by exec: together about 30 ms of every gaborbox process.  Value
    # classes are NamedTuple records or __slots__ classes
    assert _package_imports("dataclasses") == set()


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # a fresh interpreter, so an import made by another test cannot hide one
    script = "import sys\nimport gaborbox.cli\nprint('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["False", "False"]
