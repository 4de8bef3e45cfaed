"""Benchmark workloads: each one is a full evopareto experiment.

A workload fixes everything of the experiment config except ``master_seed``,
which comes from the benchmark's ``--seed`` argument.  Generations are cut
from the roster's usual 20-25 so that one repetition of the whole
run -> metrics -> stats pipeline takes a few seconds and a run can report
medians over several repetitions; the work done per generation (population,
roster, episodes, objectives) is the one each workload is meant to stress.

This module holds data only, so run.py can read it without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    environment: str
    algorithms: tuple[str, ...]
    pop_size: int
    generations: int
    n_episodes: int
    n_runs: int

    def config_text(self, seed: int) -> str:
        """The experiment as an evopareto config document."""
        return (
            f"environment = {self.environment}\n"
            f"algorithms = {', '.join(self.algorithms)}\n"
            f"pop_size = {self.pop_size}\n"
            f"generations = {self.generations}\n"
            f"n_episodes = {self.n_episodes}\n"
            f"n_runs = {self.n_runs}\n"
            f"master_seed = {seed}\n"
        )

    @property
    def evaluations(self) -> int:
        """Budget evaluations of one experiment: pop x generations x runs x algorithms."""
        return self.pop_size * self.generations * self.n_runs * len(self.algorithms)


WORKLOADS = {
    # Rollout-bound: 5-episode walker evaluations are about 90% of run time.
    "walker_rollout": Workload(
        environment="NoisyPointWalker",
        algorithms=("NSGA2", "SPEA2", "GA", "DE"),
        pop_size=50, generations=3, n_episodes=5, n_runs=2,
    ),
    # Selection-bound: every bandit point is nondominated, so tell runs its
    # worst case; evaluation is a few percent.  Largest records and reference front.
    "bandit_roster": Workload(
        environment="TradeoffBandit",
        algorithms=("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"),
        pop_size=50, generations=3, n_episodes=1, n_runs=2,
    ),
    # The k = 3 paths: 3-D hypervolume slicing in SMS-EMOA, NSGA-III
    # directions, HopLander dynamics.  SMS-EMOA's work depends on how many
    # points share the worst front; population 16 over 12 generations keeps
    # its seed-to-seed spread small.
    "hop_3obj": Workload(
        environment="HopLander",
        algorithms=("NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"),
        pop_size=16, generations=12, n_episodes=1, n_runs=2,
    ),
}

#: Tiny experiment run with jobs=1 and jobs=2; both must give the same bytes.
JOBS_CHECK = Workload(
    environment="TradeoffBandit", algorithms=("NSGA2", "SPEA2"),
    pop_size=10, generations=4, n_episodes=1, n_runs=2,
)
