"""Reference figures: `solve` wall time and peak RSS at one state dimension.

    for n in 4 16 24 32; do python3 leechbench/ladder.py $n; done

One process per n, one BLAS thread.  n = 24 and 32 use the solvable fixed
instances of decide-ladder; other n use random_problem(1000, dims=(n, 2, 3, 2)).
Prints the median of REPEATS solves and the process's peak resident set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import leechsolve as ls  # noqa: E402
import leechsolve.files  # noqa: E402,F401

REPEATS = 5


def main(n):
    fixed = HERE / "fixed" / f"n{n}-s1000.json"
    if fixed.is_file():
        data, _ = ls.files.read_problem(str(fixed))
    else:
        data, _ = ls.random_problem(1000, dims=(n, 2, 3, 2))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        ls.solve(data)
        times.append(time.perf_counter() - start)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"n={n}: solve median {statistics.median(times):.4f} s over {REPEATS}, "
          f"min {min(times):.4f} s, peak RSS {rss:.1f} MB")


if __name__ == "__main__":
    main(int(sys.argv[1]))
