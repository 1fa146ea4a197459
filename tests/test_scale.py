"""The constructions at sizes far beyond the recursion limit.

Every construction runs as loops over one peeling structure, so none may die
with a RecursionError, whatever the input size.  The tests run under the
interpreter's default recursion limit and check each answer independently of
the construction that produced it.  The random instances stay below the arc
count at which the generator slows down, which keeps the file within a few
seconds.
"""

import os
import subprocess
import sys

import pytest

from fasdlab.cli import main
from fasdlab.coloring import verify_good_coloring
from fasdlab.delta3 import fas_sixth, good_g_coloring
from fasdlab.digraph import Digraph, is_acyclic
from fasdlab.fileio import write_digraph
from fasdlab.generators import random_orgraph, random_two_regular_orgraph
from fasdlab.triples import decompose3, verify_good_triple
from test_triples import extend, vtriple

N = 20_000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000 < N


def test_decompose3_at_n_20000():
    d = random_orgraph(N, 4, 3, seed=1, arc_target=7 * N // 4)
    assert verify_good_triple(d, decompose3(d, verify=False)) == (True, None)


def test_good_g_coloring_at_n_20000():
    d = random_orgraph(N, 3, 4, seed=1, arc_target=7 * N // 5)
    coloring = good_g_coloring(d, 4, check=False)
    assert verify_good_coloring(d, coloring, 4)[0]


def test_fas_sixth_at_n_20000():
    # a strong core that the reductions take apart in some 1700 steps
    d = random_orgraph(N, 3, 6, seed=0, arc_target=(4 * N) // 3)
    fas = fas_sixth(d, check=False)
    drop = set(fas)
    assert len(drop) == len(fas) and 6 * len(fas) <= d.m
    assert is_acyclic(Digraph(d.n, [uv for a, uv in enumerate(d.arcs) if a not in drop]))[0]


def test_extension_along_a_long_antidirected_path():
    # x0 -> x1 <- x2 -> x3 <- ...; the start's sole out-neighbour is x1
    L = 3000
    d = Digraph(L, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(L - 1)])
    xl = L - 1
    triple = extend(d, list(range(L)), ([xl], [xl], [xl]))
    assert verify_good_triple(d, triple) == (True, None)
    assert triple[0][0] == 0 and triple[1][-1] == 0


def test_vtriple_of_a_long_path_like_graph():
    # the square of a directed path: inner vertices are balanced (2, 2)
    n = 5000
    d = Digraph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])
    triple = vtriple(d, 0)
    assert verify_good_triple(d, triple) == (True, None)
    assert triple[0][0] == 0 and triple[1][-1] == 0


def test_cli_decompose3_verify_at_n_20000(tmp_path, capsys):
    f = tmp_path / "big.txt"
    # 2-regular: the case that removes a vertex and grows anti-directed paths
    write_digraph(f, random_two_regular_orgraph(N, seed=2))
    assert main(["decompose3", str(f)]) == 0
    assert capsys.readouterr().out.count("sigma") == 3


SCRIPT = """
import hashlib
from fasdlab.delta3 import fas_sixth, good_g_coloring
from fasdlab.generators import random_orgraph
from fasdlab.triples import decompose3
d = random_orgraph(3000, 3, 6, seed=7, arc_target=4000)
out = (decompose3(d).orderings, sorted(good_g_coloring(d, 4).items()), fas_sixth(d))
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


def test_same_output_under_different_hash_seeds():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1
