#!/usr/bin/env python3
"""Mutation sweep of ``src/trisecant/porteous.py``, ``_graded.py``, ``degree.py``,
``riemann_roch.py`` and ``ring.py``.

Each mutant makes one change to one module: a ``+`` swapped for ``-`` or back
(binary, augmented or unary), or one integer constant raised by 1.  It runs
in a fresh interpreter on its own copy of ``src/``, which runs
``verify_checks(8, 12)`` and then every determinant route for d in [8, 15],
comparing each degree with binomial(d-2, 3) - 2(d-4).  A mutant is

  killed    when a check fails or a route returns a wrong degree,
  raised    when an exception escapes, or it runs past 120 seconds,
  survived  otherwise; each survivor is listed with its line.

One count line is printed per module, then that module's survivors.
``--module`` (repeatable) sweeps only the modules it names, by file stem;
without it every module above is swept.

Standard library only.  Usage:

    python3 scripts/mutation_sweep.py [--root CHECKOUT] [--module NAME ...]
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

MODULES = tuple(
    Path("src", "trisecant", name)
    for name in ("porteous.py", "_graded.py", "degree.py", "riemann_roch.py", "ring.py")
)
KILLED = 10
TIMEOUT = 120

CHILD = f"""
import sys
from math import comb
from trisecant import METHODS, secant3_degree
from trisecant.cli import verify_checks

if not all(check.passed for check in verify_checks(8, 12).checks):
    sys.exit({KILLED})
for d in range(8, 16):
    for method in METHODS:
        if secant3_degree(d, method) != comb(d - 2, 3) - 2 * (d - 4):
            sys.exit({KILLED})
"""

SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.UAdd: ast.USub, ast.USub: ast.UAdd}


def sites(tree: ast.AST) -> list[tuple[int, str]]:
    """(index in ``ast.walk`` order, description) of every mutable node."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)) and type(node.op) in SWAP:
            swap = "+ -> -" if type(node.op) in (ast.Add, ast.UAdd) else "- -> +"
            found.append((index, swap))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((index, f"{node.value} -> {node.value + 1}"))
    return found


def owners(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, name) of each function and ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            found += [(n.lineno, n.end_lineno, f"{node.name}.{n.name}") for n in methods]
        elif isinstance(node, ast.FunctionDef):
            found.append((node.lineno, node.end_lineno, node.name))
    return found


def mutate(source: str, index: int) -> tuple[str, int, int]:
    """The module with the node at ``index`` mutated, and that node's line and column."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    if isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAP[type(node.op)]()
    return ast.unparse(tree), node.lineno, node.col_offset


def run(src: Path, module: Path | None = None, text: str = "") -> str:
    """Outcome of the child on a copy of ``src`` where ``module``, if given, reads ``text``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch, "src")
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if module is not None:
            Path(scratch, module).write_text(text)
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD], env=env, capture_output=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return "raised"
    return {0: "survived", KILLED: "killed"}.get(proc.returncode, "raised")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout whose src/ is mutated (default: this one)",
    )
    parser.add_argument(
        "--module", action="append", choices=[module.stem for module in MODULES],
        help="sweep only this module, e.g. _graded (repeatable; default: all)",
    )
    args = parser.parse_args()
    modules = [module for module in MODULES if not args.module or module.stem in args.module]
    src = args.root / "src"
    if run(src) != "survived":
        print("the unmutated modules do not pass; nothing to measure", file=sys.stderr)
        return 1
    sources = {module: (args.root / module).read_text() for module in modules}
    mutants = [(module, site) for module in modules for site in sites(ast.parse(sources[module]))]

    def one(mutant):
        module, (index, _) = mutant
        text, _, _ = mutate(sources[module], index)
        return run(src, module, text)

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        outcomes = list(pool.map(one, mutants))

    for module in modules:
        source = sources[module]
        lines = source.splitlines()
        functions = owners(ast.parse(source))
        mine = [(site, out) for (owner, site), out in zip(mutants, outcomes) if owner == module]
        kinds = [out for _, out in mine]
        counts = {kind: kinds.count(kind) for kind in ("killed", "raised", "survived")}
        print(f"{args.root / module}: {len(mine)} mutants, "
              + ", ".join(f"{kind} {n}" for kind, n in counts.items()))
        for (index, change), outcome in mine:
            if outcome == "survived":
                _, line, column = mutate(source, index)
                where = next((name for a, b, name in functions if a <= line <= b), "<module>")
                print(f"  line {line}:{column} in {where}: {change}  | {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
