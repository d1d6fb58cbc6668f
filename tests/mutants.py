"""Mutation gate: each entry of MUTANTS breaks the package in one place, and
the test files it names must then fail.

An entry is (file, old text, new text, test files).  The script copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory, applies
each entry alone to that copy (its old text must occur exactly once), and
runs pytest on the named test files against the copy, stopping at the first
failure.  A mutant is killed when pytest reports a failing test.  The script
prints one line per mutant and the kill count, and exits 1 if a mutant
survives or an entry no longer applies.  Mend a survivor with a test; never
delete the mutant.  Standard library only (pytest runs in a subprocess);
run from the repository root:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/admissible/"

MUTANTS = [
    # refusal bounds, each off by one
    (PKG + "configurations.py", "if cells > MAX_CELLS:", "if cells >= MAX_CELLS:",
     ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py", "if cap > MAX_DEGREE_CAP:", "if cap >= MAX_DEGREE_CAP:",
     ["tests/test_cli.py"]),
    (PKG + "polyspaces.py", "if total_vars > MAX_VARS:", "if total_vars >= MAX_VARS:",
     ["tests/test_cli.py"]),
    (PKG + "cli.py", "if len(cases) > MAX_CASES:", "if len(cases) >= MAX_CASES:",
     ["tests/test_cli.py"]),
    (PKG + "vertexops.py", "if terms > MAX_PAIR_TERMS:", "if terms >= MAX_PAIR_TERMS:",
     ["tests/test_vertexops.py"]),
    # verify --kmax 0 accepted
    (PKG + "cli.py", 'least = 1 if name == "kmax" else 0', "least = 0",
     ["tests/test_cli.py"]),
    # a block replay names the witness's z power instead of the block's
    (PKG + "cli.py",
     'z_exp = witness["z_exp"] if case["n"] is None else case["n"]',
     'z_exp = witness["z_exp"]',
     ["tests/test_cli.py"]),
    # the rank keeps reducing rows after every column has a pivot
    (PKG + "polyspaces.py",
     "        if len(pivots) == ncols:\n            break\n",
     "",
     ["tests/test_polyspaces.py"]),
    # a non-int value read as an int instead of at its exact value
    (PKG + "vertexops.py",
     "return [(key, value.numerator * (den // value.denominator)) for key, value in exact], den",
     "return [(key, int(value)) for key, value in exact], 1",
     ["tests/test_vertexops.py"]),
    # two entries for one generator pair, the later one silently kept
    (PKG + "vertexops.py",
     "            if rows.setdefault(g, {}).setdefault(h, num) != num:\n"
     '                raise ValueError(f"conflicting pairings for {(g, h) if g <= h else (h, g)}")\n',
     "            rows.setdefault(g, {})[h] = num\n",
     ["tests/test_vertexops.py"]),
    # tail walks of two digit widths sharing one memo entry
    (PKG + "polyspaces.py",
     "    key = (rho, free_zeros, w, slots)\n    out = _PLAIN_WALKS.get(key)",
     "    key = (rho, free_zeros, slots)\n    out = _PLAIN_WALKS.get(key)",
     ["tests/test_polyspaces.py"]),
    # one per fast path against its slow reference: the packed division one
    # doubling short, a short Pochhammer memo entry never lengthened, the
    # memo's partition code without its field width (which merges {1, 1}
    # with {2}), the signed count's sign, the rank never taking the longest
    # row, the pair recurrence's lower term one step off, and a part's own
    # pairs in the weight counted m_a^2 times
    (PKG + "series.py", "    while stride < length:", "    while 2 * stride < length:",
     ["tests/test_series.py"]),
    (PKG + "fermionic.py", "if entry is None or entry[1] < need:", "if entry is None:",
     ["tests/test_fermionic.py"]),
    (PKG + "fermionic.py", "1 << w * v", "1 << v", ["tests/test_fermionic.py"]),
    (PKG + "polyspaces.py", "(-1 if (odd - i) & 1 else 1)", "(-1 if i & 1 else 1)",
     ["tests/test_polyspaces.py"]),
    (PKG + "polyspaces.py", "for vec in sorted(rows, key=len):",
     "for vec in sorted(rows, key=len)[:-1]:", ["tests/test_polyspaces.py"]),
    (PKG + "vertexops.py", "(D * (d - 1) - E)", "(D * d - E)", ["tests/test_vertexops.py"]),
    (PKG + "polyspaces.py", "(m_a * m_b if b > a else comb(m_a, 2))",
     "(m_a * m_b if b >= a else comb(m_a, 2))", ["tests/test_polyspaces.py"]),
    # the direct route's plan: the level limit read at s_1, which plans
    # blocks that nothing reads, and every demand one lower, which drops
    # the top coefficient of every block
    (PKG + "configurations.py", "top - s[min(a, r1)]", "top - s[min(a, 1)]",
     ["tests/test_configurations.py"]),
    (PKG + "configurations.py", "plan[vec] = (a, q_max - w, last, terms)",
     "plan[vec] = (a, q_max - w - 1, last, terms)", ["tests/test_configurations.py"]),
    # the fermionic walk's cover cut: a child's bound one short, which drops
    # the vectors at the bound, and the cover test without its z-weight
    # clause, which bounds a coordinate that can go higher in z
    (PKG + "fermionic.py", "cfirst, cbound = j + 1, last - v",
     "cfirst, cbound = j + 1, last - v - 1", ["tests/test_fermionic.py"]),
    (PKG + "fermionic.py", "            and weights[i] >= weights[i - 1]\n", "",
     ["tests/test_fermionic.py"]),
]
# A test run that takes longer than this is reported, not waited for.
TIMEOUT_S = 600


def run(copy: Path, env: dict, entry) -> str:
    """Apply one entry to the copy, run its tests, restore the file; return
    'killed', 'SURVIVED', or why the entry could not be judged."""
    path, old, new, tests = entry
    target = copy / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"STALE: the old text occurs {text.count(old)} times"
    target.write_text(text.replace(old, new))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"ERROR: the tests ran past {TIMEOUT_S} s"
    finally:
        target.write_text(text)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        # no bytecode, so no run can import a stale .pyc of another mutant
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import admissible; print(admissible.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"the copy's tests would import admissible from {where}")
            return 1
        killed = 0
        for entry in MUTANTS:
            started = time.perf_counter()
            verdict = run(copy, env, entry)
            killed += verdict == "killed"
            path, old, _, _ = entry
            line = old.strip().splitlines()[0]
            print(f"{verdict:8} {time.perf_counter() - started:4.1f} s  {path}: {line}")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
