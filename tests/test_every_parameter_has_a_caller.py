"""Every defaulted parameter of a package function is passed by some call
in the package or the benchmark harness, so no knob exists that only tests
turn. A parameter nobody passes is a constant: make it a module constant.

A call `f(...)` or `x.f(...)` counts for every function named f. It
passes a parameter by keyword, by position (a method's first parameter,
self or cls, takes no position), or through `*args` or `**kwargs`. A call
`C(...)`, or `cls(...)` inside a classmethod of C, counts for C's
`__init__` and `__new__`."""

import ast
from pathlib import Path

import rotorsense

PACKAGE = Path(rotorsense.__file__).parent
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

# function.parameter: why no caller passes it yet
ALLOWED = {
    "filter_noise.return_mask": "ROADMAP item 11 reads the filter's kept fractions through the mask",
}


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """(function, parameter, position or None for keyword-only, line) of
    each parameter with a default. A class's `__init__` and `__new__` are
    named `Class.__init__` and `Class.__new__`."""
    found = []

    def visit(node: ast.AST, cls_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                skip = 1 if cls_name and "staticmethod" not in decorators else 0
                name = f"{cls_name}.{child.name}" if child.name in ("__init__", "__new__") else child.name
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((name, arg.arg, i - skip, child.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None, child.lineno))
                visit(child, None)
            else:
                visit(child, cls_name)

    visit(tree, None)
    return found


def calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(name of the called function, call) of every call in the module; a
    call C(...), or cls(...) in a classmethod of C, is also named
    `C.__init__` and `C.__new__`."""
    out = []

    def visit(node: ast.AST, cls_name: str | None, in_classmethod: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                visit(child, cls_name, "classmethod" in decorators)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "cls" and in_classmethod:
                    name = cls_name
                if name is not None:
                    out.extend((key, child) for key in (name, f"{name}.__init__", f"{name}.__new__"))
            visit(child, cls_name, in_classmethod)

    visit(tree, None, False)
    return out


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_by_some_caller():
    assert len(CALLERS) > 10
    all_calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for name, call in calls(ast.parse(path.read_text(), filename=str(path))):
            all_calls.setdefault(name, []).append(call)
    unpassed = [
        f"{path.name}:{lineno} {function}.{parameter}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, position, lineno in defaulted_parameters(ast.parse(path.read_text()))
        if f"{function}.{parameter}" not in ALLOWED
        and not any(passes(call, parameter, position) for call in all_calls.get(function, []))
    ]
    assert not unpassed, f"no caller in src/ or perfbench/ passes these; make each a module constant: {unpassed}"


def test_allowed_parameters_still_exist():
    names = {
        f"{function}.{parameter}"
        for path in PACKAGE.glob("*.py")
        for function, parameter, _, _ in defaulted_parameters(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= names
