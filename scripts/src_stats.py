"""Size of the package: lines per module, default-valued parameters, CLI options.

    python3 scripts/src_stats.py [--src src]

Prints the line count of every module under <src>/ginzburg and the total,
the number of function parameters that carry a default value (positional
and keyword-only, counted from the AST), and the options each subcommand
of the command line accepts (-h left out).  Informational only: it never
fails on a count.
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


def default_parameters(package: Path) -> int:
    count = 0
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


def cli_options(src: Path) -> dict[str, list[str]]:
    sys.path.insert(0, str(src))
    from ginzburg.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for action in parser._actions
                   for opt in action.option_strings[:1] if opt != "-h"]
            for name, parser in sub.choices.items()}


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
    print(f"default-valued parameters: {default_parameters(package)}")
    options = cli_options(src)
    print(f"CLI options: {sum(map(len, options.values()))}")
    for name, opts in options.items():
        print(f"  {name} ({len(opts)}): {' '.join(opts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
