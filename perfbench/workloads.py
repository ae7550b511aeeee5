"""The benchmark's workloads: three fixed sub-sweeps of the CLI grid.

Each workload is a ``SuiteConfig`` for the public runner
``gsp4verify.cli.run`` and the layers its traced run must reach.  The
grids are fixed paper parameters; no workload draws random inputs.
"""

from typing import NamedTuple


class Workload(NamedTuple):
    config: dict        # keyword arguments of cli.SuiteConfig
    layers: tuple       # layers whose traced call count must be non-zero


WORKLOADS = {
    # Formal prime: symbolic l, symcore and sympy gcd dominate.  The
    # cases share bilinear pairings through a process-global cache, also
    # across the two suites.  k_max is set directly because --k1 is
    # ignored by the CLI.
    "tame": Workload(
        config=dict(suites=("tame-norm", "frobrecip"), k_max=1, t_max=2),
        layers=("symcore", "sympy", "besselzeta", "cli")),
    # Hecke double cosets, wild cosets and local data: padic dominates,
    # symcore is a few percent, so a symcore change should not move it.
    "coset": Workload(
        config=dict(suites=("hecke", "wild-norm", "local-data"),
                    primes=(2, 3), m_max=1, n_max=1, t_max=2),
        layers=("padic", "gsp4local", "normrel", "cli")),
    # Many small independent cases with the prime pinned, run on the
    # runner's two-worker pool: the only workload that uses the pool.
    "catalogue": Workload(
        config=dict(suites=("gl2", "branching"), parallelism=2),
        layers=("symcore", "sympy", "gl2local", "branching", "cli")),
}
