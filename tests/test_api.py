"""Public surface: the exported names, qmath's helpers, the one tolerance table, the
numpy calls on the per-point path, and no module-level name that nothing uses."""

import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import repeaterlab
from repeaterlab import cli, qmath, repeater

SRC = Path(repeaterlab.__file__).resolve().parent
TOLERANCE_SUFFIXES = ("_ATOL", "_TOL", "_FLOOR", "_CUTOFF", "_SLACK")

EXPECTED_ALL = {
    "AnalyticResult", "BoundResult", "ComparisonRecord", "CriterionReport",
    "OptimalBasis", "RankOneRequiredError", "SampledResult",
    "achieved_rate", "achieving_operator", "bell_kets", "build_optimal_basis",
    "compare_with_bell", "computational_kets", "criterion_lhs",
    "direct_success_prob", "is_optimal", "measurement_from_text", "p_max",
    "projection_bounds", "run_protocol_analytic", "run_protocol_sampled",
    "run_protocol_with_kets", "steering_bound",
    "trace_rearrangement_lb", "__version__",
}


def module_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_all_is_pinned():
    assert len(repeaterlab.__all__) == 25
    assert set(repeaterlab.__all__) == EXPECTED_ALL
    for name in repeaterlab.__all__:
        assert hasattr(repeaterlab, name)


QMATH_FUNCTIONS = {
    "as_real_pairs", "format_matrix_text",
    "parse_matrix_blocks", "require_hermitian", "singular_values_2x2",
    "spectral_norm_within",
}


def qmath_names_used(path: Path) -> set[str]:
    """Names a module takes from qmath: `qmath.x` lookups and `from .qmath import x`."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "qmath"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "qmath":
            used.update(alias.name for alias in node.names)
    return used


def test_qmath_helpers_are_the_ones_the_package_calls():
    tree = ast.parse((SRC / "qmath.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert public == QMATH_FUNCTIONS
    # qmath's own function bodies count as package callers too.
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for path in SRC.glob("*.py"):
        if path.name != "qmath.py":
            used |= qmath_names_used(path)
    assert public - used == set()


def test_tolerances_live_only_in_qmath():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "qmath.py" in modules
    strays = {p.name: sorted(n for n in module_level_names(p) if n.endswith(TOLERANCE_SUFFIXES))
              for p in modules if p.name != "qmath.py"}
    assert {k: v for k, v in strays.items() if v} == {}
    table = sorted(n for n in module_level_names(SRC / "qmath.py")
                   if n.endswith(TOLERANCE_SUFFIXES))
    assert len(table) == 5


def functions_reading(name: str) -> set[tuple[str, str]]:
    """(module, function) of every package function that loads name, bare or as an attribute."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                    or isinstance(n, ast.Attribute) and n.attr == name
                    for n in ast.walk(node)):
                found.add((path.stem, node.name))
    return found


# numpy calls that build or index an angle grid.
GRID_CALLS = {"arange", "linspace", "meshgrid", "divmod", "repeat", "tile", "minimum"}


def test_the_sweep_grid_has_one_owner():
    # One loop slices the grid, in repeater._grid_table; cli only formats it.
    assert functions_reading("_TABLE_SLICE") == {("repeater", "_grid_table")}
    tree = ast.parse(inspect.getsource(repeater._grid_table))
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    assert "_TABLE_SLICE" in ast.dump(loops[0].iter)
    calls = {node.attr for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)}
    assert calls & GRID_CALLS == set()


def test_kets_are_checked_only_where_they_arrive():
    # A basis the library builds is orthonormal as built (the tests vouch
    # for it); the Gram check runs on kets a caller or a file hands in.
    assert "__post_init__" not in vars(repeater.OptimalBasis)
    assert functions_reading("_orthonormal_kets") == {
        ("repeater", "run_protocol_with_kets"), ("criterion", "criterion_lhs"),
        ("criterion", "is_optimal"), ("criterion", "measurement_from_text")}


def test_readme_library_example_holds():
    # Each commented line of README's Python block evaluates to the value
    # its comment starts with, a float within 1e-12.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
    namespace, checked = {}, 0
    for line in block.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        expected, value = ast.literal_eval(comment.split(",")[0].strip()), eval(code, namespace)
        if isinstance(expected, bool):
            assert value is expected, line
        else:
            assert abs(value - expected) <= 1e-12, line
        checked += 1
    assert checked == 5


def module_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: functions, classes, constants and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and \
                not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names - {"__all__"}


# Called only from outside the package: cli.run returns a report as one
# string, where the console script streams it.
ENTRY_POINTS = {("cli", "run")}


def test_every_module_level_name_is_used():
    """Each one is loaded in its own module, looked up as an attribute (qmath.x),
    imported by a sibling module, exported, or an entry point."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
    unused = {}
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        names = module_level_definitions(tree) - loaded - attributes - set(repeaterlab.__all__)
        unused[module] = sorted(n for n in names
                                if (module, n) not in imported | ENTRY_POINTS)
    assert {k: v for k, v in unused.items() if v} == {}


def test_one_success_weight_and_one_gram_bound():
    # The kernel's fields hold one success weight, Clare's probability times
    # Bob's, and every basis is checked at the one bound qmath.LOOSE_ATOL.
    assert repeater._Outcomes._fields == ("clare_prob", "scaled", "norm", "maximal",
                                          "bob_success_prob")
    assert list(inspect.signature(repeater._orthonormal_kets).parameters) == ["kets"]


# The library's private names that cli imports, and why each stays.
CLI_PRIVATE_IMPORTS = {
    # criterion checks a basis' kets once per command, where the file is read
    # (the built-in bases go unchecked), and hands them to the verdict
    # unchecked again.
    "_verdict",
    # criterion checks the angles before it reads a measurement file, so a
    # bad angle is the error reported, as on every library route.
    "_checked_angles",
    # sweep formats the table its kernel's module builds, snaps and slices:
    # the grid's angles, each written once, and one slice of the table at a
    # time, each written before the next is made.
    "_grid_angles", "_grid_table",
}


def test_cli_imports_only_the_pinned_library_privates():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")}
    assert imported == CLI_PRIVATE_IMPORTS


def test_only_the_hand_laid_reports_are_laid_out_at_import():
    # The record commands' layouts are walked from their records on first
    # use; only bound and sweep, which report no record, lay theirs out by
    # hand, at module level.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    laid_out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "_layout"):
                assert isinstance(node, ast.Assign), ast.dump(node)
                laid_out.update(t.id for t in node.targets)
    assert laid_out == {"_BOUND", "_SWEEP"}


# numpy functions that are Python wrappers over one C-level call; the
# per-point chain makes that call itself.
WRAPPERS = {np: ("stack", "eye", "sum"), np.linalg: ("norm",)}


def test_per_point_commands_call_no_numpy_wrappers(monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on the per-point path")
        return call

    for module, names in WRAPPERS.items():
        for name in names:
            monkeypatch.setattr(module, name, forbidden(f"{module.__name__}.{name}"))
    for argv in (["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "0.5"],
                 ["compare", "--theta", "0.3", "--eta", "0.6"],
                 ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
                 ["criterion", "--theta", "0.6", "--eta", "0.3", "--measurement", "bell"],
                 ["sweep", "--grid", "3"]):
        assert cli.run(cli.parse_args(argv))[0] == 0, argv


def report_commands(tmp_path):
    """One command line per command and criterion source, without --format."""
    path = tmp_path / "meas.txt"
    path.write_text("".join(qmath.format_matrix_text(k)
                            for k in repeater.build_optimal_basis(0.2, 0.5).kets),
                    encoding="utf-8")
    return (["rate", "--theta", "0.3", "--eta", "0.6", "--beta1", "0.5"],
            ["basis", "--theta", "0.3", "--eta", "0.6"],
            ["simulate", "--theta", "0.3", "--eta", "0.6", "--n", "1000", "--seed", "1"],
            ["criterion", "--theta", "0.6", "--eta", "0.3", "--measurement", "optimal"],
            ["criterion", "--theta", "0.3", "--eta", "0.6", "--measurement-file", str(path)],
            ["compare", "--theta", "0.3", "--eta", "0.6"],
            ["bound", "--a", "0.5,0.3,0.2", "--b", "0.6,0.4"],
            ["sweep", "--grid", "3"])


def test_json_reports_never_run_the_indent_encoder(monkeypatch, tmp_path):
    # json.dumps(..., indent=2) always runs json's pure-Python encoder; every
    # JSON report is a template fill, and json.dumps runs only to build one.
    commands = [[*argv, "--format", "json"] for argv in report_commands(tmp_path)]
    for argv in commands:  # builds bound's zero texts, kept per d
        assert cli.run(cli.parse_args(argv))[0] == 0, argv

    def forbidden(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")
    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    with pytest.raises(AssertionError):
        json.dumps([1.0], indent=2)
    for argv in commands:
        assert cli.run(cli.parse_args(argv))[0] == 0, argv


def test_no_report_goes_through_to_dict(monkeypatch, tmp_path):
    # Every report, CSV included, is filled from its cells; to_dict is the
    # library callers' form and the tests' reference.
    def forbidden(self):
        raise AssertionError(f"{type(self).__name__}.to_dict ran")
    for record in (repeater._Record, repeater.AnalyticResult, repeaterlab.BoundResult):
        monkeypatch.setattr(record, "to_dict", forbidden)
    with pytest.raises(AssertionError):
        repeaterlab.compare_with_bell(0.3, 0.6).to_dict()
    _, parsers = cli._build_parser()
    for argv in report_commands(tmp_path):
        formats = next(a.choices for a in parsers[argv[0]]._actions if a.dest == "output_format")
        for output_format in formats:
            config = cli.parse_args([*argv, "--format", output_format])
            assert cli.run(config)[0] == 0, config
