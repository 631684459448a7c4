"""The production surface is what a report reaches.

Every public function, class, method and property defined in a production
module (every module of the package but ``oracle``, the tests' dense
cross-check, and ``__init__``, which only re-exports) must be reached by code
that runs outside the tests, or sit in ``KEPT`` with its reason.

The source is parsed, not imported. Reach starts from every name used in
``tools/`` and ``perfbench/`` (a string in ``perfbench/tracing.py``'s
``TRACED`` table names a function the tracer patches) and in the module-level
code of the production modules, and follows the names used in the body of
every reached definition; a reached class brings its base classes, decorators,
class-level statements and dunder methods. A name is matched by its last
component, so a method is reached wherever an attribute of that name is read,
except an attribute of a module imported from outside the package
(``json.load`` reaches no ``load``). Importing a name does not use it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcatalyst"
NOT_PRODUCTION = ("__init__.py", "oracle.py")

ITEM_9 = "seeded generator; obs3 is to draw its Stinespring channels from these (ROADMAP item 9)"
KEPT = {
    "sampling.random_channel": ITEM_9,
    "sampling.random_instrument": ITEM_9,
    "sampling.random_isometry": ITEM_9,
    "sampling.random_pure_vector": ITEM_9,
    "sampling.random_unitary": ITEM_9,
}


def _foreign(tree):
    """Names a file binds by importing from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if not alias.name.startswith("qcatalyst")
            }
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not (node.module or "").startswith("qcatalyst"):
                names |= {alias.asname or alias.name for alias in node.names}
    return names


def _used(node, foreign):
    """Every name ``node`` reads, as a variable or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in foreign:
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            base = sub.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in foreign):
                names.add(sub.attr)
    return names


def _class_body_used(cls, foreign):
    """What a reached class uses by itself: bases, decorators, class-level
    statements and dunder methods; its other methods are reached by name."""
    names = set()
    for node in cls.bases + cls.decorator_list + cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            continue
        names |= _used(node, foreign)
    return names


def _production():
    """(definitions by simple name, names used at module level)."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in NOT_PRODUCTION:
            continue
        tree = ast.parse(path.read_text())
        foreign = _foreign(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    roots |= _used(node, foreign)
                continue
            qualified = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append((qualified, _used(node, foreign)))
            else:
                defs.setdefault(node.name, []).append(
                    (qualified, _class_body_used(node, foreign))
                )
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                        defs.setdefault(method.name, []).append(
                            (f"{qualified}.{method.name}", _used(method, foreign))
                        )
    return defs, roots


def _outside_roots():
    roots = set()
    for path in sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= _used(tree, _foreign(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TRACED" for target in node.targets
            ):
                roots |= {
                    part
                    for const in ast.walk(node.value)
                    if isinstance(const, ast.Constant) and isinstance(const.value, str)
                    for part in const.value.split(".")
                }
    return roots


def _unreached():
    defs, roots = _production()
    pending, seen, reached = list(roots | _outside_roots()), set(), set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for qualified, uses in defs.get(name, ()):
            reached.add(qualified)
            pending.extend(uses - seen)
    public = {
        qualified
        for entries in defs.values()
        for qualified, _ in entries
        if not qualified.rsplit(".", 1)[-1].startswith("_")
    }
    return public - reached, public


def test_every_public_name_is_reached_or_kept():
    unreached, _ = _unreached()
    stray = sorted(unreached - set(KEPT))
    assert not stray, "public names only the tests reach:\n" + "\n".join(stray)


def test_every_kept_name_is_defined_and_unreached():
    # a kept name that something now reaches, or that is gone, leaves the list
    unreached, public = _unreached()
    stale = sorted(name for name in KEPT if name not in public or name not in unreached)
    assert not stale, "stale KEPT entries:\n" + "\n".join(stale)
