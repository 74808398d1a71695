"""The benchmark's workloads: synthetic inputs and the CLI arguments run on them.

Every workload synthesises the same paper-scale ensemble shape (4 runs of
60,225 days x 25 sites, pi=0.05, sigma=0.5, u0=1.0) and estimates with
n_srun=50 and --workers 1. They differ in the question, so each one puts
the Monte Carlo cost on a different kind of per-cell work. README.md in
this directory says why each workload exists and which layer it isolates.
"""

from __future__ import annotations

from dataclasses import dataclass

N_RUNS = 4
N_DAYS = 60_225
N_SITES = 25
PI = 0.05
SIGMA = 0.5
U0 = 1.0
TAU = 0.95
N_SRUN = 50
PAPER_N_SIM = 10_000
NO_LEAP_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def q1_target(expected_per_run: float = 0.005, xi: float = 0.1) -> float:
    """Level whose exact expected exceedance count per synthetic run is
    ``expected_per_run``: solves N_DAYS * PI * (1 + xi (t - U0) / SIGMA)**(-1/xi).

    The mean count per synthetic ensemble must stay below 1, where the
    power correction is defined, under the fitted emulators, not only
    under the truth. Fitted by-month shapes run high (the largest of 48
    month fits reaches 0.2-0.5 against the true 0.1). Over twenty workload
    seeds, at the level of 0.05 true exceedances per run the fitted count
    per run was 2-13 times the true one, and one seed gave 0.63, so that
    ensembles of 50 runs went above 1. At 0.005 the ratio is higher but
    the counts are lower: the largest was 0.25. The run record keeps the
    synth command's truth.json entry (event_truth) for this level.
    """
    return U0 + SIGMA / xi * ((expected_per_run / (N_DAYS * PI)) ** (-xi) - 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    question: str
    order_k: int          # synth order statistic; equals the question's, so the
                          # reduced series is the exact synthetic scalar
    xi: float
    rho: float
    target: float
    n_sim: int            # fixed; see README.md for how it was chosen
    baseline: str         # re-anchor estimate at paper defaults, for the derived line
    sim_days: int | None = None   # estimate --sim-days; None simulates full-length runs

    @property
    def days_per_cell(self) -> int:
        """Daily draws per (t_sim, t_srun) cell; the chain question draws none."""
        if self.question == "q3":
            return 0
        return N_DAYS if self.sim_days is None else self.sim_days

    def synth_args(self, out: str, seed: int) -> list[str]:
        """One synthetic run (run_1.csv) and its truth.json under ``out``."""
        return ["synth", "--out", out, "--n-runs", "1", "--n-days", str(N_DAYS),
                "--n-sites", str(N_SITES), "--order-k", str(self.order_k), "--pi", repr(PI),
                "--xi", repr(self.xi), "--sigma", repr(SIGMA), "--u0", repr(U0),
                "--rho", repr(self.rho), "--seed", str(seed), "--targets", repr(self.target)]

    def fit_args(self, out: str, csvs: list[str]) -> list[str]:
        return ["fit", "--out", out, "--question", self.question, *csvs]

    def estimate_args(self, out: str, seed: int, artifacts: list[str]) -> list[str]:
        argv = ["estimate", "--out", out, "--question", self.question,
                "--target", repr(self.target), "--n-sim", str(self.n_sim),
                "--n-srun", str(N_SRUN), "--seed", str(seed), "--workers", "1", "--c-samples"]
        if self.sim_days is not None:
            argv += ["--sim-days", str(self.sim_days)]
        return argv + artifacts

    def to_dict(self) -> dict:
        return {"name": self.name, "question": self.question, "order_k": self.order_k,
                "xi": self.xi, "rho": self.rho, "target": self.target, "n_sim": self.n_sim,
                "sim_days": self.sim_days, "n_srun": N_SRUN, "n_runs": N_RUNS,
                "n_days": N_DAYS, "n_sites": N_SITES, "pi": PI, "sigma": SIGMA, "u0": U0,
                "tau": TAU, "workers": 1}


WORKLOADS = {
    w.name: w for w in (
        Workload("q1-full", "q1", order_k=1, xi=0.1, rho=0.0, target=q1_target(), n_sim=100,
                 baseline="about 140 s (0.28 ms per cell); goal under 5 s"),
        # the question's built-in target; its order statistic has no closed-form
        # level, and the check needs none
        Workload("q2-window", "q2", order_k=20, xi=0.0, rho=0.0, target=5.7, n_sim=300,
                 sim_days=1000, baseline="no re-anchor figure at --sim-days 1000"),
        Workload("q3-chain", "q3", order_k=23, xi=0.0, rho=0.7, target=2.5, n_sim=10,
                 baseline="about 25 min (2.9 ms per cell); goal under 2 min"),
    )
}
