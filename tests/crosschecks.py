"""Cross-checks at the largest windows, as one table that runs anywhere.

A row of ROWS is (name, kind, command or commands, timeout in seconds).  It
passes, by kind, when:

- ``ok``: the command exits 0 within the timeout, and a ``verify`` command
  reports every case as ``match``;
- ``same``: the two commands exit 0 within the timeout with equal stdout;
- ``refuse``: the command exits 2 within the timeout, with nothing on stdout
  and exactly one line, ``error: ...``, on stderr;
- ``python``: the function of this module that it names returns without
  raising, in a fresh interpreter, within the timeout.

A command is the words after ``admissible``; it runs as ``python -m
admissible.cli WORDS`` with this checkout's ``src`` first on PYTHONPATH, so
nothing need be installed.  ``python tests/crosschecks.py``, with no
arguments, prints each row's time and name, and for a failing row the reason
and one ``replay: python -m admissible.cli WORDS`` line per command; it exits
1 if any row fails.  Standard library only, bar the test helpers (and so
pytest and hypothesis) that the code-images row imports.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])))

BIG = "--k 3 --r 2 --b 1 --qmax 1000000000000 --zmax 1000000000000"
Q5 = "--qmax 5 --zmax 5"
Q60 = "--qmax 60 --zmax 30"
Q200 = "--qmax 200 --zmax 100"
Q300 = "--qmax 300 --zmax 150"
Q400 = "--qmax 400 --zmax 200"
ROWS = [
    # large requests that must be accepted, the two largest pairs requests first
    ("pairs-order-1413", "ok", "pairs --family r2 --k 1 --order 1413", 3),
    ("pairs-k-28", "ok", "pairs --family r2 --k 28 --order 2", 3),
    ("dims-cap-6", "ok", "dims --r 3 --k 2 --b0 1 --n 2 --cap 6", 20),
    ("direct-k-1e7", "ok", f"char --method direct --k 10000000 --r 2 --b 10000000 {Q5}", 20),
    ("dims-k-1e12", "ok", "dims --r 3 --k 1000000000000 --b0 0 --n 2 --cap 2", 20),
    # oversized requests: refused before any work, never a hang
    ("refuse-direct-1e12", "refuse", f"char --method direct {BIG}", 20),
    ("refuse-fermionic-1e12", "refuse", f"char --method fermionic-r2 {BIG}", 20),
    ("refuse-fermionic-k-1e5", "refuse",
     "char --method fermionic-r2 --k 100000 --r 2 --b 0 --qmax 0 --zmax 100000", 20),
    ("refuse-table-k-1e5", "refuse", "table --k 100000 --which A2", 20),
    ("refuse-signed-r2", "refuse", "dims --r 2 --k 1 --b0 0 --n 2 --cap 3 --variant signed", 20),
    ("refuse-oracle-q21", "refuse",
     "char --method oracle --k 3 --r 3 --b 1,3 --qmax 21 --zmax 9", 20),
    ("refuse-verify-k-1e5", "refuse", "verify r2 --kmax 100000 --qmax 1 --zmax 1", 20),
    ("refuse-signed-k-1e12", "refuse",
     "dims --r 3 --variant signed --k 1000000000000 --b0 0 --n 1000000000001 --cap 2", 20),
    ("refuse-pairs-1e12", "refuse", "pairs --family r2 --k 1 --order 1000000000000", 20),
    ("refuse-table-k-1e12", "refuse", "table --which c2 --k 1000000000000 --b0 0", 20),
    # verify suites, every case a match
    ("verify-special", "ok", "verify special-equality", 20),
    ("verify-pairs", "ok", "verify pair-functions", 20),
    ("verify-weights", "ok", "verify weights", 20),
    ("verify-conjecture", "ok", "verify conjecture-10.2", 20),
    ("verify-r2-q100", "ok", "verify r2 --kmax 6 --qmax 100 --zmax 50", 20),
    ("verify-r3-q60", "ok", "verify r3 --kmax 3 --qmax 60 --zmax 30", 20),
    # long Pochhammer inverses (r2 to q^400), and r3 windows whose walk
    # lengthens a memo entry that a vector at a larger shift left short
    ("verify-r2-q400", "ok", "verify r2 --kmax 3 --qmax 400 --zmax 200", 20),
    ("verify-special-q80", "ok", "verify special-equality --kmax 6 --qmax 80 --zmax 40", 20),
    ("verify-pairs-order-8", "ok", "verify pair-functions --kmax 8 --order 8", 20),
    # 60-term depth, where the integer numerators h_d run to hundreds of bits
    ("verify-pairs-order-60", "ok", "verify pair-functions --kmax 6 --order 60", 20),
    # 2,859 weight cases, partition sizes the defaults never build
    ("verify-weights-size-12", "ok", "verify weights --kmax 5 --sizemax 12 --sizemax3 10", 20),
    # 81 cases in oracle-r2 --nmax 8 --cap 16, 63 in oracle-r3 --kmax 3 --nmax 6 --cap 8
    ("verify-oracle-r2-n7", "ok", "verify oracle-r2 --nmax 7 --cap 14", 20),
    ("verify-oracle-r3-n5", "ok", "verify oracle-r3 --nmax 5 --cap 10", 20),
    ("verify-oracle-r2-n8", "ok", "verify oracle-r2 --nmax 8 --cap 16", 20),
    ("verify-oracle-r3-n6", "ok", "verify oracle-r3 --nmax 6 --cap 12", 20),
    ("verify-oracle-r3-k3", "ok", "verify oracle-r3 --kmax 3 --nmax 6 --cap 8", 20),
    # a fermionic sum builds the Gordon data of the coordinates its window can
    # raise, min(k, zmax) per block, so a large k with a small window is quick
    ("r2-k-1e5", "same", (f"char --method fermionic-r2 --k 100000 --r 2 --b 3 {Q5}",
                          f"char --method direct --k 100000 --r 2 --b 3 {Q5}"), 10),
    ("r2-k-2000", "same", (f"char --method fermionic-r2 --k 2000 --r 2 --b 1999 {Q5}",
                           f"char --method direct --k 2000 --r 2 --b 1999 {Q5}"), 10),
    # fermionic-r2 folded over partial sums at windows the walk took 110 s
    # and 9.2 s over
    ("r2-k-50-q300", "same", (f"char --method fermionic-r2 --k 50 --r 2 --b 10 {Q300}",
                              f"char --method direct --k 50 --r 2 --b 10 {Q300}"), 10),
    ("r2-k-1000-q200", "same", (f"char --method fermionic-r2 --k 1000 --r 2 --b 3 {Q200}",
                                f"char --method direct --k 1000 --r 2 --b 3 {Q200}"), 10),
    ("r3-k-2000", "same", (f"char --method fermionic-r3 --k 2000 --r 3 --b 3,2000 {Q5}",
                           f"char --method direct --k 2000 --r 3 --b 3,2000 {Q5}"), 10),
    ("r3-special-k-2001", "same", (f"char --method fermionic-r3-special --k 2001 --r 3 {Q5}",
                                   f"char --method direct --k 2001 --r 3 --b 1001,2001 {Q5}"), 10),
    # the memo of Pochhammer inverses at the window where one partition
    # recurs in the most subtrees
    ("r2-k-6-q400", "same", (f"char --method fermionic-r2 --k 6 --r 2 --b 1 {Q400}",
                             f"char --method direct --k 6 --r 2 --b 1 {Q400}"), 10),
    # windows where the direct plan's level limit, top - s_min(a, r - 1), cuts blocks
    ("r3-k-50-q60", "same", (f"char --method direct --k 50 --r 3 --b 10,50 {Q60}",
                             f"char --method fermionic-r3 --k 50 --r 3 --b 10,50 {Q60}"), 10),
    ("r3-k-1000-q60", "same", (f"char --method direct --k 1000 --r 3 --b 3,1000 {Q60}",
                               f"char --method fermionic-r3 --k 1000 --r 3 --b 3,1000 {Q60}"), 10),
    ("q700-68-bits", "python", "q700_68_bits", 10),
    ("dims-z7", "python", "dims_z7_against_direct", 10),
    ("signed-blocks", "python", "signed_blocks", 20),
    ("code-images", "python", "code_images", 60),
]


def _stdout(cmd):
    """What ``admissible CMD`` prints, run in this process; it must exit 0."""
    from admissible import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(cmd.split()) == 0, cmd
    return out.getvalue()


def q700_68_bits():
    """68-bit coefficients: both routes run at the 128 bits the window takes, and agree."""
    window = "--k 3 --r 2 --b 0 --qmax 700 --zmax 60"
    direct = _stdout(f"char --method direct {window}")
    assert _stdout(f"char --method fermionic-r2 {window}") == direct
    bits = max(int(c).bit_length() for _, _, c in json.loads(direct)["terms"])
    assert bits > 63, bits


def dims_z7_against_direct():
    """The largest pair spaces any oracle command builds: the dims character
    at n = 7, cap 14, against the z^7 block of direct, 11 terms from q^19."""
    oracle = json.loads(_stdout("dims --r 3 --k 3 --b0 1 --b1 3 --n 7 --cap 14"))["char"]
    direct = json.loads(_stdout("char --method direct --k 3 --r 3 --b 1,3 --qmax 29 --zmax 7"))
    block = [[q, 0, c] for q, z, c in direct["terms"] if z == 7]
    assert oracle["q_order"] == direct["q_order"] == 29, (oracle, direct["q_order"])
    assert oracle["terms"] == block, (oracle["terms"], block)
    assert len(block) == 11 and block[0][0] == 19, block


def signed_blocks():
    """The signed special-case spaces, k <= 4, n <= 8, cap 16, against direct's z^n blocks."""
    from admissible.configurations import character_direct
    from admissible.polyspaces import graded_dimension, vanishing_spec_r3_signed
    from admissible.series import TruncatedSeries

    blocks = nonzero = 0
    for k in range(1, 5):
        b0 = (k + 1) // 2
        chi = character_direct(k, 3, (b0, k), 16, 8)
        for n in range(9):
            dims = graded_dimension(vanishing_spec_r3_signed(n, k, b0, 16))
            assert TruncatedSeries([dims], 16) == chi.z_block(n), (k, n)
            blocks += 1
            nonzero += any(dims)
    assert (blocks, nonzero) == (36, 26), (blocks, nonzero)


def code_images():
    """Every code image of the capped domain (n <= 8, |rho| <= 16, every pattern with
    a t or -t slot), decoded, against brute_force's tuple walk, term order included."""
    from admissible.polyspaces import partitions_max_parts
    from brute_force import _substitute_monomial
    from test_polyspaces import _decoded

    images = 0
    for n in range(9):
        patterns = [(p, m, z) for p in range(n + 1) for m in range(n + 1 - p)
                    for z in range(n + 1 - p - m) if p + m]
        for rho in (rho for size in range(17) for rho in partitions_max_parts(size, n)):
            for pattern in patterns:
                got, want = _decoded(rho, n, pattern), _substitute_monomial(rho, n, pattern)
                assert list(got.items()) == list(want.items()), (rho, n, pattern)
                images += 1
    assert images == 294459, images


def commands(row):
    """The command lines a row runs: none for a python row."""
    _, kind, what, _ = row
    return [] if kind == "python" else list(what) if kind == "same" else [what]


def check(row):
    """None if the row passes, else the reason it fails."""
    _, kind, what, timeout = row
    if kind == "python":
        argvs = [[sys.executable, "-c", f"import crosschecks; crosschecks.{what}()"]]
    else:
        argvs = [[sys.executable, "-m", "admissible.cli", *cmd.split()] for cmd in commands(row)]
    try:
        runs = [subprocess.run(argv, capture_output=True, timeout=timeout, env=ENV, cwd=HERE)
                for argv in argvs]
    except subprocess.TimeoutExpired:
        return f"no exit within {timeout} s"
    for run in runs:
        if run.returncode != (2 if kind == "refuse" else 0):
            return f"exit {run.returncode}: {(run.stderr.decode().splitlines() or [''])[-1]}"
    done, err = runs[0], runs[0].stderr.decode()
    if kind == "refuse" and (done.stdout or err.count("\n") != 1 or not err.startswith("error: ")):
        return f"stdout {done.stdout[:80]!r}, stderr {err!r}"
    if kind == "same" and runs[1].stdout != done.stdout:
        return "stdout differs"
    if kind == "ok" and what.startswith("verify "):
        statuses = {report["status"] for report in json.loads(done.stdout)["reports"]}
        if statuses != {"match"}:
            return f"report statuses {sorted(statuses)}, not all match"
    return None


def main():
    failed, start = 0, time.perf_counter()
    for row in ROWS:
        t0 = time.perf_counter()
        reason = check(row)
        print(f"{time.perf_counter() - t0:7.2f} s  {row[0]}", flush=True)
        if reason is not None:
            failed += 1
            print(f"           FAIL: {reason}")
            for cmd in commands(row):
                print(f"           replay: python -m admissible.cli {cmd}")
    print(f"{len(ROWS)} rows, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
