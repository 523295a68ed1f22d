"""Operator mutation check: which single-operator changes does the suite miss?

Usage (from the root of a checkout):

    python3 tools/mutate.py src/ringpair/design.py tests/test_design.py \
        tests/test_cli.py --sample 20 --seed 1

Finds every site in the module where one operator can be swapped for
its partner: ``+`` and ``-``, ``*`` and ``/``, ``<`` and ``<=``, ``>``
and ``>=``. It copies the checkout to a temporary directory, checks that
the given tests pass there unmutated, and then, for a sample of the
sites drawn with the seed, writes one mutant at a time into the copy and
runs ``pytest -x`` over the given test files, under the Hypothesis
profile ``mutate`` of ``tests/conftest.py``, which does not shrink a
failing example, so a killed mutant fails fast. The checkout itself is
never written, and the copy is removed when the run ends, also when
SIGTERM or SIGHUP stops it. A mutant that the tests pass is a survivor,
printed as ``file:line: mutated line``: behaviour no test pins, or a
mutant that computes the same thing. A run of the tests past
``TIMEOUT_S`` kills its mutant.

The ledger, ``tools/mutants.txt``, lists the known equivalent mutants,
each with its reason. A survivor
that the ledger lists is counted but not printed, so a rerun prints only
new survivors, and the exit status is 1 only when there is one.

Uses the standard library only. It takes minutes, so it stays outside
the test suite and CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.txt"
TIMEOUT_S = 600.0

# Operator class -> (its source text, the partner's class and text).
SWAPS = {
    ast.Add: ("+", ast.Sub, "-"),
    ast.Sub: ("-", ast.Add, "+"),
    ast.Mult: ("*", ast.Div, "/"),
    ast.Div: ("/", ast.Mult, "*"),
    ast.Lt: ("<", ast.LtE, "<="),
    ast.LtE: ("<=", ast.Lt, "<"),
    ast.Gt: (">", ast.GtE, ">="),
    ast.GtE: (">=", ast.Gt, ">"),
}
# The operator's own text between two operands, not part of a longer one.
_TOKEN = {text: re.compile(rf"(?<![-+*/<>=!]){re.escape(text)}(?![-+*/<>=])")
          for text, _, _ in SWAPS.values()}


class Site(NamedTuple):
    start: int  # byte span of the operator's text
    end: int
    old: str
    new: str
    new_op: type
    lineno: int  # position of the node that holds the operator
    col: int

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new.encode() + source[self.end:]


def _offsets(source: bytes) -> list[int]:
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _gaps(tree: ast.AST):
    """(node, operator, left operand, right operand) of every swappable operator."""
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
            for n in ast.walk(f)}  # f-string positions are unreliable before 3.12
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node, node.op, node.left, node.right
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, op, operands[i], operands[i + 1]


def find_sites(source: bytes) -> list[Site]:
    tree = ast.parse(source)
    starts = _offsets(source)
    sites = []
    for node, op, left, right in _gaps(tree):
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        hi = starts[right.lineno - 1] + right.col_offset
        gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), source[lo:hi].decode())
        old, new_op, new = SWAPS[type(op)]
        found = list(_TOKEN[old].finditer(gap))
        if len(found) != 1:
            continue
        at = lo + len(gap[:found[0].start()].encode())
        site = Site(at, at + len(old.encode()), old, new, new_op, node.lineno, node.col_offset)
        if _swapped(site.apply(source), site):
            sites.append(site)
    return sorted(sites, key=lambda s: s.start)


def _swapped(mutant: bytes, site: Site) -> bool:
    """True when the mutant parses and holds the partner operator at the site."""
    try:
        tree = ast.parse(mutant)
    except SyntaxError:
        return False
    for node, op, _, _ in _gaps(tree):
        if (node.lineno, node.col_offset) == (site.lineno, site.col) and type(op) is site.new_op:
            return True
    return False


def _line(source: bytes, offset: int) -> tuple[int, str]:
    lineno = source.count(b"\n", 0, offset) + 1
    return lineno, source.splitlines()[lineno - 1].decode().strip()


def read_ledger(path: Path) -> set[tuple[str, str]]:
    """(module, mutated line) of each ledger entry; see the ledger's header."""
    entries: dict[tuple[str, str], list[str]] = {}
    reasons = None
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            if reasons is None:
                raise ValueError(f"{path}:{n}: a reason comes before any entry")
            reasons.append(line.strip())
            continue
        module, sep, text = line.partition(": ")
        if not sep or not text.strip():
            raise ValueError(f"{path}:{n}: an entry is 'module: mutated line'")
        reasons = entries.setdefault((module, text.strip()), [])
    missing = [f"{module}: {text}" for (module, text), why in entries.items() if not why]
    if missing:
        raise ValueError(f"{path}: entries without a reason: {missing}")
    return set(entries)


def _copy_checkout(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".clibench_*", ".benchmarks"))


def _run_tests(copy: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for pytest -x over ``tests`` in the copy.

    pytest runs in a session of its own; a timeout, or any exception
    here, kills that whole process group, so no test's subprocess
    outlives the run.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutate", *tests]
    with subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            return "passed" if proc.wait(TIMEOUT_S) == 0 else "failed"
        except subprocess.TimeoutExpired:
            return "timeout"
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)


def _exit_on_signal(signum: int, _frame: object) -> None:
    """Turn SIGTERM and SIGHUP into SystemExit, so the copy is removed."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module file, relative to the checkout root")
    parser.add_argument("tests", nargs="+", help="test files, relative to the checkout root")
    parser.add_argument("--sample", type=int, default=20, help="sites to mutate (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the site sample")
    args = parser.parse_args(argv)
    if args.sample < 1:
        parser.error("--sample must be at least 1")

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    module = Path(args.module)
    known = read_ledger(LEDGER)
    source = (ROOT / module).read_bytes()
    sites = find_sites(source)
    chosen = sorted(random.Random(args.seed).sample(sites, min(args.sample, len(sites))),
                    key=lambda s: s.start)
    print(f"{module}: {len(sites)} sites, mutating {len(chosen)} (seed {args.seed})",
          file=sys.stderr)

    survivors, equivalent = [], 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        _copy_checkout(copy)
        target = copy / module
        if _run_tests(copy, args.tests) != "passed":
            print("the tests fail on the unmutated copy; nothing to measure", file=sys.stderr)
            return 2
        for n, site in enumerate(chosen, 1):
            mutant = site.apply(source)
            target.write_bytes(mutant)
            outcome = _run_tests(copy, args.tests)
            target.write_bytes(source)
            lineno, text = _line(mutant, site.start)
            if outcome == "passed" and (module.as_posix(), text) in known:
                outcome, equivalent = "known equivalent", equivalent + 1
            elif outcome == "passed":
                outcome = "survived"
                survivors.append((lineno, text))
            print(f"[{n}/{len(chosen)}] {module.name}:{lineno} {site.old} -> {site.new}: "
                  f"{outcome}", file=sys.stderr)

    for lineno, text in survivors:
        print(f"{module}:{lineno}: {text}")
    killed = len(chosen) - len(survivors) - equivalent
    print(f"{killed} killed, {equivalent} known equivalent, {len(survivors)} new survivors "
          f"of {len(chosen)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
