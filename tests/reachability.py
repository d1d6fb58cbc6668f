"""Which functions of the admissible package no command reaches.

Runs ``cli.main`` in this process under ``sys.setprofile`` on three sets of
command lines: every golden case of ``tests/test_cli.py``, every case of the
benchmark pools in ``bench/workloads.py``, and the few lines in EXTRA that
reach the other table formats and tables, the help text, a refused
negative flag and a q_max past the packed-width table.  It prints every module-level function and method of the
package that none of them called.  It exits 1 if one of those is not in
ALLOWED, or if a function in ALLOWED was called, so that the list cannot go
stale.  Standard library only; run from the repository root:

    PYTHONPATH=src python tests/reachability.py
"""

import ast
import contextlib
import importlib
import io
import pkgutil
import runpy
import sys
from pathlib import Path

import admissible
from admissible import cli

ROOT = Path(__file__).resolve().parents[1]

EXTRA = [
    ["table", "--k", "3", "--which", "B", "--format", "csv"],
    ["table", "--k", "3", "--which", "c3", "--b0", "1", "--format", "latex"],
    ["table", "--k", "2", "--which", "B3"],
    ["--help"],
    ["char", "--help"],
    ["dims", "--r", "2", "--k", "1", "--b0", "0", "--n", "-1", "--cap", "4"],
    # a q_max past the packed-width table, which takes the Apostol bound, at
    # z_max = 0, whose bound of one partition gives 8-bit fields
    ["char", "--method", "direct", "--k", "1", "--r", "2", "--b", "0", "--qmax", "6000",
     "--zmax", "0"],
]

_RECORD = "record protocol: immutability, repr and field values"
ALLOWED = {
    "series.TruncatedSeries.__mul__": "the NotImplemented stub bench/tracer.py wraps (ROADMAP items 2, 12)",
    "series.TruncatedSeries.coeffs": "kept while bench/tracer.py reads it (ROADMAP items 2, 12)",
    "series.TruncatedSeries.coefficient": "a test accessor",
    "series.TruncatedSeries.__eq__": "a test accessor",
    "series.TruncatedSeries.__repr__": "a test accessor",
    "series._unserializable": "an error path: dumps given an object JSON cannot hold",
    "cli._replay_lines": "runs only on a verify mismatch",
    "fermionic.gordon_data_r3": "public r3 Gordon data; the sums read the window-sized _data_r3",
    "fermionic._sum_bits": "the width of a sum over Gordon data no command builds",
    "series._Overflow.__init__": "an internal error: every route proves its width first",
    "configurations._Record.__setattr__": _RECORD,
    "configurations._Record.__delattr__": _RECORD,
    "configurations._Record.__repr__": _RECORD,
    "configurations._Record._values": _RECORD,
}


def golden_argvs():
    """The argv of every golden case, read from the GOLDEN_CASES literal of
    tests/test_cli.py without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GOLDEN_CASES"]:
            return list(ast.literal_eval(node.value).values())
    raise LookupError("tests/test_cli.py defines no GOLDEN_CASES")


def bench_argvs():
    """The argv of every case of the benchmark pools; run_path writes no
    bytecode next to the file."""
    pools = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
    return [argv for pool in pools.values() for argv in pool]


def package_functions() -> dict:
    """code object -> 'module.qualname' for every function and method the
    package's modules define."""
    names = {}
    for info in pkgutil.iter_modules(admissible.__path__):
        mod = importlib.import_module(f"admissible.{info.name}")
        for value in vars(mod).values():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                code = getattr(member, "__code__", None)
                if code is not None:
                    names[code] = f"{info.name}.{member.__qualname__}"
    return names


def reached_codes(argvs) -> set:
    """The code objects of every Python function called while cli.main runs
    each argv, its output discarded."""
    reached = set()
    add = reached.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            for argv in argvs:
                cli.main(list(argv))
        finally:
            sys.setprofile(None)
    return reached


def main() -> int:
    names = package_functions()
    argvs = golden_argvs() + bench_argvs() + EXTRA
    reached = reached_codes(argvs)
    unreached = sorted(name for code, name in names.items() if code not in reached)
    print(f"{len(argvs)} command lines reach {len(names) - len(unreached)} "
          f"of {len(names)} package functions; not reached:")
    for name in unreached:
        print(f"  {name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
    stale = sorted(ALLOWED.keys() - set(unreached))
    for name in stale:
        print(f"allowed but reached (drop it from ALLOWED): {name}")
    return 1 if stale or set(unreached) - ALLOWED.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
