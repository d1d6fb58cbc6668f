"""Mutation gate: each entry of MUTANTS breaks the package in one place, and
the killers it names must then fail.

An entry is (file, old text, new text, killers).  A killer is a test file
or one of its tests (a path under ``tests/``, or a pytest node id), or the
name of a row of ``tests/crosschecks.py``.  The script copies ``src``,
``tests`` and ``pyproject.toml`` to a temporary directory, applies each
entry alone to that copy (its old text must occur exactly once), and runs
the killers against the copy: pytest on the named tests, stopping at the
first failure, then each named row through ``crosschecks.check`` in a
fresh interpreter.  A mutant is killed when pytest reports a failing test
or a row fails.  The script prints one line per mutant and the kill count,
and exits 1 if a mutant survives or an entry no longer applies.  Mend a survivor with a test or a row; never delete the
mutant.  Standard library only (pytest and the rows run in subprocesses);
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
# Run in the copy's root: exits 1 if the row named by argv[1] fails, 0 if it
# passes, and 2 if no row has that name.
ROW_CHECK = (
    "import sys; sys.path.insert(0, 'tests'); import crosschecks\n"
    "row = {row[0]: row for row in crosschecks.ROWS}.get(sys.argv[1])\n"
    "sys.exit(2 if row is None else crosschecks.check(row) is not None)"
)

ORACLE_BLOCKS = (
    "tests/test_polyspaces.py::TestOracleBlocks::test_every_b0_at_once_equals_each_b0_alone"
)
BOOLS = "tests/test_configurations.py::test_entry_points_refuse_a_bool"
WIDTHS = "tests/test_series.py::TestWidthFromThePartitionBound::"
GENERIC_BOUND = (
    "tests/test_fermionic.py::TestEachRouteRunsOnceAtAProvenWidth::"
    "test_the_generic_bound_holds_every_coefficient"
)

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
    # the pair check's shortcuts: the odd pairing reused when only a's
    # parity vectors are equal, the integer pass of a pairing taken as the
    # result when a coefficient is not an int, and the closed forms of one
    # run keyed by p alone (which merges two closed forms of one p)
    (PKG + "vertexops.py", "if a.odd == a.even and b.odd == b.even else",
     "if a.odd == a.even else", ["tests/test_vertexops.py"]),
    (PKG + "vertexops.py",
     "        if type(total) is not int:\n"
     "            u_terms, u_den = _over_lcd(list(u.items()))\n"
     "            v_terms, v_den = _over_lcd(list(v.items()))\n"
     "            total = self._sum(u_terms, v_terms)\n"
     "            den *= u_den * v_den\n",
     "",
     ["tests/test_vertexops.py"]),
    (PKG + "cli.py",
     "coeffs = closed_forms.get(expected)\n"
     "    if coeffs is None:\n"
     "        coeffs = closed_forms[expected] =",
     'coeffs = closed_forms.get(p["p"])\n'
     "    if coeffs is None:\n"
     '        coeffs = closed_forms[p["p"]] =',
     ["tests/test_cli.py"]),
    # the validators without their whole-number checks: a b entry truncated
    # to an int, and a k that is not an int let through
    (PKG + "configurations.py",
     "    if ints != b:\n"
     '        raise ValueError(f"b entries must be whole numbers: {b}")\n',
     "",
     ["tests/test_configurations.py"]),
    (PKG + "configurations.py", "if not _is_int(k) or k < 1:", "if k < 1:",
     ["tests/test_configurations.py"]),
    # the order checks without their int checks: a window, a series order,
    # a pair function's order and a degree cap that are not ints let through
    # to fail later, and the fermionic sums building data for a z_max that
    # the window check will refuse
    (PKG + "configurations.py", "    if not (_is_int(q_max) and _is_int(z_max)):\n",
     "    if False:\n", ["tests/test_configurations.py"]),
    (PKG + "series.py", "        if not (_is_int(q_order) and _is_int(z_order)):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "vertexops.py", "    if not _is_int(trunc):\n", "    if False:\n",
     ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py", "        if not _is_int(self.degree_cap):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "fermionic.py", "if _is_int(z_max) and z_max > 0 else 0",
     "if z_max > 0 else 0", ["tests/test_configurations.py"]),
    # the variable-count checks without their int checks: a count that is
    # not an int built into a spec, or let through to fail inside the route
    (PKG + "polyspaces.py",
     "        if not all(_is_int(n) for n in self.family_sizes):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py", "    if not (_is_int(l1) and _is_int(l2)):\n",
     "    if False:\n", ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py", "    if not _is_int(n):\n", "    if False:\n",
     ["tests/test_configurations.py"]),
    (PKG + "fermionic.py", "    if not _is_int(n):\n", "    if False:\n",
     ["tests/test_configurations.py"]),
    # the other integer inputs without their int checks: a series exponent,
    # a Gordon data entry, a pattern count or r that is not an int read
    # silently, or let through to fail inside the arithmetic
    (PKG + "series.py", "        if not (_is_int(dq) and _is_int(dz)):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "series.py", "        if not _is_int(n):\n", "        if False:\n",
     ["tests/test_configurations.py"]),
    (PKG + "fermionic.py",
     "        if not all(_is_int(x) for row in self.matrix for x in row):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "fermionic.py", "        if not _is_int(self.q_step):\n",
     "        if False:\n", ["tests/test_configurations.py"]),
    (PKG + "fermionic.py",
     "            if not all(_is_int(x) for x in getattr(self, name)):\n",
     "            if False:\n", ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py",
     "                if not (_is_int(p) and _is_int(m) and _is_int(z)):\n",
     "                if False:\n", ["tests/test_configurations.py"]),
    (PKG + "configurations.py", "    if not _is_int(r):\n", "    if False:\n",
     ["tests/test_configurations.py"]),
    # a bool let through as an int order or level, and a vanishing pattern
    # that is no triple let through to fail on unpacking
    (PKG + "series.py", "return isinstance(x, int) and not isinstance(x, bool)",
     "return isinstance(x, int)", ["tests/test_configurations.py"]),
    (PKG + "polyspaces.py",
     "                if not isinstance(pattern, (tuple, list)) or len(pattern) != 3:\n",
     "                if False:\n", ["tests/test_polyspaces.py"]),
    # the packed width: the q_max = 122 row given 32 bits, where p(122) has
    # 32 bits and needs 33, and every character route started one width
    # narrower than the table says, where a route that reaches p(q_max)
    # overflows.  The bound on partitions into at most z parts taken as the
    # one into exactly z parts, below the exact count, and dropped, so that
    # z_max = 0 with a long q-list takes p(q_max)'s width
    (PKG + "series.py", "(121, 32)", "(122, 32)",
     [WIDTHS + "test_each_row_is_the_last_q_max_its_width_holds"]),
    (PKG + "series.py",
     "        width = min(width, _fit(_parts_bound(q_max, z_max).bit_length()))\n"
     "    return width\n",
     "        width = min(width, _fit(_parts_bound(q_max, z_max).bit_length()))\n"
     "    return max(8, width // 2)\n",
     [WIDTHS + "test_direct_r2_reaching_p_of_q_max_takes_one_width"]),
    (PKG + "series.py", "n + z * (z + 1) // 2 - 1", "n + z * (z - 1) // 2 - 1",
     [WIDTHS + "test_parts_bound_is_at_least_the_exact_count"]),
    (PKG + "series.py", "    if 3 * z_max < q_max:\n", "    if False:\n",
     [WIDTHS + "test_a_small_z_max_narrows_the_width"]),
    # the width of a sum over data a caller builds: the count of vectors in
    # the window dropped, and the bound on one term's coefficients halved
    (PKG + "fermionic.py", "    return vectors + term\n", "    return term\n",
     [GENERIC_BOUND]),
    (PKG + "fermionic.py", "    return vectors + term\n", "    return vectors + term // 2\n",
     [GENERIC_BOUND]),
    # the character builders' data given the generic width, which is wider
    (PKG + "fermionic.py", "    if isinstance(data, _CharacterData):\n", "    if False:\n",
     ["tests/test_fermionic.py::TestEachRouteRunsOnceAtAProvenWidth::"
      "test_the_character_builders_carry_the_character_width"]),
    # a fermionic sum sized by the level, not the window: the outputs are
    # unchanged, but a large k with a small window is refused
    (PKG + "fermionic.py", "return min(k, z_max) if", "return k if", ["r2-k-1e5"]),
    # the r2 fold over partial sums: a state truncated one field short, the
    # boundary's b0 test moved by one, and each Pochhammer step off by one;
    # and the fold taking over windows of two coordinates, where the
    # benchmark's pin counts the walk's priced vectors
    (PKG + "fermionic.py",
     "            need = length - (i - 1) * (n * n - n) - below * n - shift\n",
     "            need = length - (i - 1) * (n * n - n) - below * n - shift - 1\n",
     ["tests/test_fermionic.py"]),
    (PKG + "fermionic.py", "lift, below = i > b0,", "lift, below = i >= b0,",
     ["tests/test_fermionic.py"]),
    (PKG + "fermionic.py", "_divide(x, n - m, need, packing)",
     "_divide(x, n - m + 1, need, packing)", ["tests/test_fermionic.py"]),
    (PKG + "fermionic.py", "_TRANSFER_FROM = 4", "_TRANSFER_FROM = 2",
     ["tests/test_fermionic.py::TestPrunedWalkAgainstBruteForce::"
      "test_each_visited_vector_is_priced_once[window0-16]"]),
    # every oracle block of a (k, n) read off one elimination at the largest
    # b0: the pivot at a suffix's first column left out of its count, the
    # columns of one family or of two left in build order under their
    # sorted part counts, and the build made at the smallest b0, whose
    # space holds no larger one's
    (PKG + "polyspaces.py", "sum(c >= start for c in pivots)", "sum(c > start for c in pivots)",
     [ORACLE_BLOCKS]),
    (PKG + "polyspaces.py", "groups = [sorted(kept, key=len) for kept in groups]",
     "groups = [list(kept) for kept in groups]", [ORACLE_BLOCKS]),
    (PKG + "polyspaces.py", "for parts, i, j in sorted(by_degree):",
     "for parts, i, j in by_degree:", [ORACLE_BLOCKS]),
    (PKG + "polyspaces.py", "    top = max(bs)\n", "    top = min(bs)\n", [ORACLE_BLOCKS]),
    # a bool let through as a variable count, a degree cap, a pattern
    # count, a coefficient exponent and a z exponent
    (PKG + "polyspaces.py", "all(_is_int(n) for n in self.family_sizes)",
     "all(isinstance(n, int) for n in self.family_sizes)",
     [BOOLS + "[VanishingSpec_count]"]),
    (PKG + "polyspaces.py", "_is_int(self.degree_cap)", "isinstance(self.degree_cap, int)",
     [BOOLS + "[graded_dimension]"]),
    (PKG + "polyspaces.py", "(_is_int(p) and _is_int(m) and _is_int(z))",
     "(isinstance(p, int) and isinstance(m, int) and isinstance(z, int))",
     [BOOLS + "[VanishingSpec_pattern]"]),
    (PKG + "series.py", "(_is_int(dq) and _is_int(dz))",
     "(isinstance(dq, int) and isinstance(dz, int))", [BOOLS + "[coefficient]"]),
    (PKG + "series.py", "        if not _is_int(n):\n", "        if not isinstance(n, int):\n",
     [BOOLS + "[z_block]"]),
    # a bool let through as a Gordon matrix entry
    (PKG + "fermionic.py", "all(_is_int(x) for row in self.matrix for x in row)",
     "all(isinstance(x, int) for row in self.matrix for x in row)",
     [BOOLS + "[GordonData_matrix]"]),
]
# A test run that takes longer than this is reported, not waited for.
TIMEOUT_S = 600


def killer_argvs(killers) -> list:
    """One pytest run for the killers that are test files, then one run per row."""
    tests = [killer for killer in killers if killer.startswith("tests/")]
    rows = [killer for killer in killers if not killer.startswith("tests/")]
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return ([pytest] if tests else []) + [[sys.executable, "-c", ROW_CHECK, row] for row in rows]


def run(copy: Path, env: dict, entry) -> str:
    """Apply one entry to the copy, run its killers until one fails, restore
    the file; return 'killed', 'SURVIVED', or why the entry could not be
    judged."""
    path, old, new, killers = entry
    target = copy / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"STALE: the old text occurs {text.count(old)} times"
    target.write_text(text.replace(old, new))
    try:
        for argv in killer_argvs(killers):
            done = subprocess.run(
                argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
            if done.returncode == 1:
                return "killed"
            if done.returncode != 0:
                last = (done.stdout.strip() or done.stderr.strip()).splitlines()[-1:]
                return f"ERROR: {argv[-1]} exited {done.returncode}: {last}"
    except subprocess.TimeoutExpired:
        return f"ERROR: a killer ran past {TIMEOUT_S} s"
    finally:
        target.write_text(text)
    return "SURVIVED"


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
