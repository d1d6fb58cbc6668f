"""The benchmark's case pools: one ``admissible`` command line per case.

Every case of every pool has a reference digest in reference.json.  A run
executes the whole pool once per pass, in an order drawn from the seed, so
runs with different seeds do the same work.
"""


def _direct(k, r, b, qmax, zmax):
    return ["char", "--method", "direct", "--k", str(k), "--r", str(r), "--b", b,
            "--qmax", str(qmax), "--zmax", str(zmax)]


def _fermionic(method, k, r, b, qmax, zmax):
    argv = ["char", "--method", method, "--k", str(k), "--r", str(r)]
    if b is not None:
        argv += ["--b", b]
    return argv + ["--qmax", str(qmax), "--zmax", str(zmax)]


def _dims(r, k, b0, n, cap, *extra):
    return ["dims", "--r", str(r), "--k", str(k), "--b0", str(b0), "--n", str(n),
            "--cap", str(cap), *extra]


WORKLOADS = {
    # Depth-first enumeration in `configurations` does the work; the r = 2
    # and r = 3 window constraints give different state counts.
    "direct-window": [
        _direct(3, 2, "1", 45, 22),
        _direct(3, 2, "0", 40, 20),
        _direct(3, 2, "2", 40, 20),
        _direct(3, 2, "3", 38, 19),
        _direct(2, 2, "0", 44, 22),
        _direct(2, 2, "1", 45, 22),
        _direct(2, 2, "2", 45, 22),
        _direct(4, 2, "2", 34, 17),
        _direct(2, 3, "1,2", 46, 23),
        _direct(3, 3, "1,3", 42, 21),
        _direct(4, 3, "2,4", 36, 18),
        _direct(2, 3, "0,2", 48, 24),
        _direct(3, 3, "0,3", 44, 22),
        _direct(3, 3, "2,3", 42, 21),
        _direct(2, 3, "1,1", 48, 24),
        _direct(3, 3, "1,2", 42, 21),
    ],
    # Multiplicity-vector enumeration, quadratic_exponent and the Pochhammer
    # products in `fermionic` do the work; `configurations` is idle.
    "fermionic-window": [
        _fermionic("fermionic-r2", 6, 2, "1", 100, 50),
        _fermionic("fermionic-r2", 5, 2, "2", 90, 45),
        _fermionic("fermionic-r2", 4, 2, "1", 100, 50),
        _fermionic("fermionic-r2", 3, 2, "0", 120, 60),
        _fermionic("fermionic-r2", 6, 2, "4", 70, 35),
        _fermionic("fermionic-r2", 2, 2, "1", 150, 75),
        _fermionic("fermionic-r3", 3, 3, "1,3", 60, 30),
        _fermionic("fermionic-r3", 2, 3, "1,2", 70, 35),
        _fermionic("fermionic-r3", 3, 3, "0,3", 50, 25),
        _fermionic("fermionic-r3", 2, 3, "0,2", 70, 35),
        _fermionic("fermionic-r3", 4, 3, "2,4", 36, 18),
        _fermionic("fermionic-r3-special", 4, 3, None, 80, 40),
        _fermionic("fermionic-r3-special", 5, 3, None, 70, 35),
        _fermionic("fermionic-r3-special", 6, 3, None, 50, 25),
        _fermionic("fermionic-r3-special", 3, 3, None, 100, 50),
    ],
    # Basis, substitution rows and Bareiss rank in `polyspaces`; every case
    # is a fresh process, so the substitution cache starts cold.
    "oracle-rank": [
        _dims(2, 2, 1, 7, 14),
        _dims(2, 3, 1, 8, 12),
        _dims(2, 2, 2, 7, 12),
        _dims(2, 1, 0, 6, 13),
        _dims(3, 2, 1, 4, 12, "--b1", "2"),
        _dims(3, 2, 0, 4, 11, "--b1", "2"),
        _dims(3, 3, 1, 5, 10, "--b1", "3"),
        _dims(3, 2, 1, 6, 12, "--variant", "signed"),
        _dims(3, 1, 1, 7, 12, "--variant", "signed"),
        _dims(3, 2, 0, 5, 14, "--variant", "signed"),
        ["char", "--method", "oracle", "--k", "2", "--r", "2", "--b", "0",
         "--qmax", "12", "--zmax", "6"],
        ["char", "--method", "oracle", "--k", "1", "--r", "3", "--b", "0,1",
         "--qmax", "20", "--zmax", "4"],
    ],
    # Every verify suite at its defaults, except weights at a reduced size
    # that still reaches the 6-variable expansions; each report is a case.
    "verify-sweep": [
        ["verify", "r2"],
        ["verify", "r3"],
        ["verify", "special-equality"],
        ["verify", "oracle-r2"],
        ["verify", "oracle-r3"],
        ["verify", "weights", "--kmax", "2", "--sizemax", "6", "--sizemax3", "4"],
        ["verify", "pair-functions"],
        ["verify", "conjecture-10.2"],
    ],
}


# Nominal seconds per pass at the reference speed, process start-up
# included.  A run of S seconds makes round(S / PASS_SECONDS) passes, so its
# sample count does not depend on the machine's momentary speed.
PASS_SECONDS = 5.0


def case_id(argv) -> str:
    return " ".join(argv)
