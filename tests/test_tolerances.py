"""Every numerical cutoff of the package is an entry of ``registers.TOL``,
only ``registers`` compares against the dense cap, only
``registers.thin_svd`` calls an SVD routine and only two routines call it
(the ket cut ``svd_across_cut`` and the pencil), every ket cut names the
``TOL`` entry its rank is counted at, no object is built around its
constructor with ``__new__``, outside ``states`` only
``protocols.run_protocol`` applies a map, inside it only the kernel
``_products`` multiplies a stacked map onto a state, and the dense routes
stay in ``oracle``.

The source is parsed, not imported: a float literal below 1e-3 anywhere in
``src/qcatalyst`` outside the ``Tolerances`` class body is a cutoff written
in place, a table entry that no module reads is a dead knob, and a module
other than ``registers.py`` that names ``DENSE_CAP`` is a second cap check.
"""

import ast
import dataclasses
import pathlib

from qcatalyst.registers import TOL

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qcatalyst"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _lines_of(tree, kind, name):
    for node in ast.walk(tree):
        if isinstance(node, kind) and node.name == name:
            return set(range(node.lineno, node.end_lineno + 1))
    return set()


def _table_lines(tree):
    return _lines_of(tree, ast.ClassDef, "Tolerances")


def test_no_small_float_literal_outside_the_table():
    stray = []
    for name, tree in _modules().items():
        table = _table_lines(tree) if name == "registers.py" else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < node.value < 1e-3
                and node.lineno not in table
            ):
                stray.append(f"{name}:{node.lineno}: {node.value!r}")
    assert not stray, "cutoffs written outside registers.TOL:\n" + "\n".join(stray)


def test_every_table_entry_is_read():
    read = {
        node.attr
        for tree in _modules().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "TOL"
    }
    entries = {field.name for field in dataclasses.fields(TOL)}
    assert entries, "the tolerance table has no entries"
    assert not entries - read, f"unread entries: {sorted(entries - read)}"
    assert not read - entries, f"reads of missing entries: {sorted(read - entries)}"


def test_only_registers_names_the_dense_cap():
    # every cap decision goes through registers.require_dense
    stray = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        if name != "registers.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "DENSE_CAP")
        or (isinstance(node, ast.Attribute) and node.attr == "DENSE_CAP")
        or (isinstance(node, ast.alias) and node.name == "DENSE_CAP")
    ]
    assert not stray, "DENSE_CAP named outside registers.py:\n" + "\n".join(stray)


def test_no_rank_is_counted_on_a_power():
    # rank_rtol is relative to singular values; counting squared singular
    # values (or any power) would square the cutoff as well
    stray = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "numerical_rank"
        and node.args
        and isinstance(node.args[0], ast.BinOp)
        and isinstance(node.args[0].op, ast.Pow)
    ]
    assert not stray, "numerical_rank of a power:\n" + "\n".join(stray)


def test_every_svd_goes_through_thin_svd():
    # the tall-orientation rule is written once; an ``svd`` reached through
    # any ``linalg`` module, or imported from one, is a second SVD route
    def names_svd(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").endswith("linalg") and any(
                alias.name == "svd" for alias in node.names
            )
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "svd"
            and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"
        )

    stray = []
    for name, tree in _modules().items():
        helper = _lines_of(tree, ast.FunctionDef, "thin_svd") if name == "registers.py" else set()
        stray += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if names_svd(node) and node.lineno not in helper
        ]
    assert not stray, "SVD called outside registers.thin_svd:\n" + "\n".join(stray)


def test_kets_are_cut_only_by_svd_across_cut():
    # a ket's Schmidt rank and supports come from one routine; thin_svd is
    # also called in the pencil, and nowhere else (a marginal split takes an
    # eigh)
    allowed = {
        "registers.py": ("svd_across_cut",),
        "entanglement.py": ("_pencil_rank_one_elements",),
    }

    def names_an_entry(keyword):
        value = keyword.value
        return (
            keyword.arg == "rtol"
            and isinstance(value, ast.Attribute)
            and getattr(value.value, "id", None) == "TOL"
        )

    stray = []
    for name, tree in _modules().items():
        inside = set().union(
            *(_lines_of(tree, ast.FunctionDef, fn) for fn in allowed.get(name, ()))
        )
        for node in ast.walk(tree):
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            )
            if called == "thin_svd" and node.lineno not in inside:
                stray.append(f"{name}:{node.lineno}: thin_svd")
            if called == "svd_across_cut" and not any(map(names_an_entry, node.keywords)):
                stray.append(f"{name}:{node.lineno}: svd_across_cut without rtol=TOL.<entry>")
    assert not stray, "kets cut outside svd_across_cut:\n" + "\n".join(stray)


def test_no_object_skips_its_constructor():
    # every check lives in a constructor, and ``cls.__new__`` builds an
    # object that skips them
    stray = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert not stray, "objects built around their constructor:\n" + "\n".join(stray)


def test_maps_are_applied_only_by_the_protocol_engine():
    # every protocol, the catalytic channels included, runs through
    # run_protocol and its ownership and ledger checks; so does the combined
    # measure-and-correct step, which states itself never calls (there,
    # apply_channel is apply_instrument's one-outcome case)
    stray = []
    for name, tree in _modules().items():
        engine = _lines_of(tree, ast.FunctionDef, "run_protocol") if name == "protocols.py" else set()
        for node in ast.walk(tree):
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            )
            if name == "states.py" and called != "measure_and_correct":
                continue
            if called == "apply_channel" or (
                called in ("apply_instrument", "measure_and_correct")
                and node.lineno not in engine
            ):
                stray.append(f"{name}:{node.lineno}: {called}")
    assert not stray, "maps applied outside run_protocol:\n" + "\n".join(stray)


def test_one_kernel_applies_every_map():
    # in states a stacked map reaches a state in one place, the kernel
    # _products: a function that reads Instrument._stacked hands the
    # operators to it and neither multiplies them onto a state nor weighs an
    # output against TOL.prob_floor itself (outcome sums go through
    # _kept_outcomes); besides the kernel, only the marginal's factor split
    # both multiplies matrices and compares with the floor
    def product(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)) or (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("matmul", "dot", "einsum", "tensordot", "vdot")
        )

    def floor(node):
        return isinstance(node, ast.Attribute) and node.attr == "prob_floor"

    readers, both, stray = set(), set(), []
    for fn in ast.walk(_modules()["states.py"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        if any(map(product, nodes)) and any(map(floor, nodes)):
            both.add(fn.name)
        if fn.name != "_stacked" and any(
            isinstance(n, ast.Attribute) and n.attr == "_stacked" for n in nodes
        ):
            readers.add(fn.name)
            stray += [f"{fn.name}:{n.lineno}" for n in nodes if product(n) or floor(n)]
    assert {"apply_instrument", "measure_and_correct"} <= readers
    assert not stray, "maps applied or weighed outside the kernel:\n" + "\n".join(stray)
    assert both == {"_products", "_split_factor"}


def test_the_dense_routes_stay_in_the_oracle():
    # the dense routes are the tests' cross-check: no module imports the
    # oracle; outside it only registers reshapes or decomposes a D x D
    # matrix, and only QuantumState.densify builds one; tensor_product lives
    # in the oracle, and the cap has one rule, require_dense
    dense = {"densify", "partial_trace", "permute_registers", "tensor_product", "eig_hermitian"}
    stray = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name == "fits_dense"
                or (node.name == "tensor_product" and name != "oracle.py")
            ):
                stray.append(f"{name}:{node.lineno}: defines {node.name}")
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            )
            if called == "fits_dense":
                stray.append(f"{name}:{node.lineno}: fits_dense")
        if name == "oracle.py":
            continue
        densify = _lines_of(tree, ast.FunctionDef, "densify") if name == "states.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = []
            if any(m.split(".")[-1] == "oracle" for m in modules):
                stray.append(f"{name}:{node.lineno}: imports oracle")
            if not isinstance(node, ast.Call) or name == "registers.py":
                continue
            func = node.func
            called = getattr(func, "id", getattr(func, "attr", None))
            if called in dense:
                stray.append(f"{name}:{node.lineno}: {called}")
            builds = called == "MultipartiteOperator" or (
                isinstance(func, ast.Attribute)
                and getattr(func.value, "id", getattr(func.value, "attr", None))
                == "MultipartiteOperator"
            )
            if builds and node.lineno not in densify:
                stray.append(f"{name}:{node.lineno}: builds a MultipartiteOperator")
    assert not stray, "dense routes outside the oracle:\n" + "\n".join(stray)
