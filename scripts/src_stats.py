"""Size of the package: lines per module, default-valued knobs, CLI options
and public names.

    python3 scripts/src_stats.py [--src src]

Prints the line count of every module under <src>/ginzburg and the total,
the number of function parameters that carry a default value (positional
and keyword-only) and of dataclass fields that carry one, both counted from
the AST, and the options each subcommand of the command line accepts (-h
left out).  A settable field of a config object is as much a knob as a
keyword parameter, so moving one into the other shows in the sum.  It also
lists the ten longest functions, counted from the def line to the last line
of the body, and the number of names the package exports in __all__.
The script never fails on a count; tests/test_src_stats.py holds the
ceilings that keep the knob, option and public-name counts from growing.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def module_lines(package: Path) -> dict[str, int]:
    return {p.relative_to(package.parent).as_posix():
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(package.rglob("*.py"))}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated @dataclass or @dataclass(...)."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def default_knobs(package: Path) -> tuple[int, int]:
    """(function parameters with a default, dataclass fields with one)."""
    params = fields = 0
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                              for s in node.body)
    return params, fields


def longest_functions(package: Path, n: int = 10) -> list[tuple[int, str]]:
    """The n longest functions and methods as (lines, module:qualified name),
    longest first."""
    sizes = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    sizes.append((child.end_lineno - child.lineno + 1, f"{module}:{name}"))
                visit(child, module, name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sorted(sizes, key=lambda s: (-s[0], s[1]))[:n]


def cli_options(src: Path) -> dict[str, list[str]]:
    sys.path.insert(0, str(src))
    from ginzburg.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for action in parser._actions
                   for opt in action.option_strings[:1] if opt != "-h"]
            for name, parser in sub.choices.items()}


def public_names(src: Path) -> list[str]:
    sys.path.insert(0, str(src))
    import ginzburg

    return list(ginzburg.__all__)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args()
    src = Path(args.src)
    package = src / "ginzburg"

    lines = module_lines(package)
    width = max(map(len, lines))
    for name, n in lines.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(lines.values()):>5}")
    params, fields = default_knobs(package)
    print(f"default-valued parameters: {params}")
    print(f"default-valued dataclass fields: {fields}")
    print(f"default-valued knobs: {params + fields}")
    print("longest functions (lines):")
    for n, name in longest_functions(package):
        print(f"  {n:>5}  {name}")
    options = cli_options(src)
    print(f"CLI options: {sum(map(len, options.values()))}")
    for name, opts in options.items():
        print(f"  {name} ({len(opts)}): {' '.join(opts)}")
    print(f"public names: {len(public_names(src))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
