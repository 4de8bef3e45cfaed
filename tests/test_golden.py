"""Frozen output digests: a config plus a seed gives byte-identical CSVs.

Each case runs one algorithm alone (pop 10, 4 generations, 2 runs, 1
episode, master seed 3; pop 8 on NoisyPointWalker) and pins the SHA-256 of
``metrics.csv`` followed by ``fronts.csv``.  The multi-episode cases run the
same configs at 3 episodes, so they also pin the ordered episode sum.  The
noisy case runs HopLander at sigma 0.5, where the Gaussian noise is large
enough that a last-bit change of a normal draw reaches the CSVs.  The
workload-scale case runs the truncating MOEAs together on TradeoffBandit at
pop 50, where every point is nondominated, so each generation's selection
drops 50 of 100 pool members at once.  The custom-reference case runs
R-NSGA-II on HopLander with two reference points given in raw objective
space, which each pool normalizes before ranking.  The steady-state case
runs SMS-EMOA and SPEA2 together on NoisyPointWalker at pop 50, where many
pool members are dominated: SMS-EMOA's pools reach 20 fronts, so its
insertions raise ranks along chains of dominators and its worst fronts are
proper subsets, while SPEA2 fills its archive with the best dominated
members and never truncates (the workload-scale case pins SPEA2's
truncation, whose sorted neighbour-distance rows tie over many columns).  A
refactor that keeps every draw in the same order leaves these unchanged; a
deliberate change of the output bytes must bump ``rng.SCHEME`` and re-pin the
digests.
"""

import dataclasses
import hashlib

import pytest

from evopareto import harness
from evopareto.config import ExperimentConfig

ALL = ("GA", "DE", "PSO", "NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2")
MOEAS = ("NSGA2", "SPEA2", "SMSEMOA", "NSGA3", "RNSGA2")

GOLDEN = {
    ("TradeoffBandit", "GA"):
        "6f54da517f0a697a446ead97751b62fbb57fb5d9c199313154c64dc6e4ef2bf6",
    ("TradeoffBandit", "DE"):
        "ea27ef5e963a3fe3444855ef1ceb0deaa7db7e2424a3724403e600858d3bc796",
    ("TradeoffBandit", "PSO"):
        "06ed00fe9640aa445b1eb6bfcf2b1380c0741a784503a17060f0f208184c5b88",
    ("TradeoffBandit", "NSGA2"):
        "79feca378f4f60dab8f71ae6005ab6f6a02e97dc3b71ba720a99c54e57152143",
    ("TradeoffBandit", "SPEA2"):
        "2b56cd924da33b3c742df03db7e0c225a7bfd011f542a2d6bd72c5407c81727d",
    ("TradeoffBandit", "SMSEMOA"):
        "61e961f6f3a43f10add1648c696e655b3a3e27ef5e743d59e2cf1dacb935cde9",
    ("TradeoffBandit", "NSGA3"):
        "fa843685729f8ad3520737202118e2c7f5d8a35189a9cc727370307ca7d01692",
    ("TradeoffBandit", "RNSGA2"):
        "8a538141b8e87be77222d4af6a5180eb070d3dcef329fd3217b58e42e86610a2",
    ("HopLander", "NSGA2"):
        "50705fe7a596e6122165c2081e8ec4253c5bc00869e9045666e7f4900ba18d0d",
    ("HopLander", "SPEA2"):
        "bc7b927ac8f889e50daa1b315e2baa7c32c913c9ffa45952c5d3762c69068906",
    ("HopLander", "SMSEMOA"):
        "8231c5277373776e5dabd2f3385503b14ac034b37bfdab16feaf1f3fe8d3543b",
    ("HopLander", "NSGA3"):
        "b3cf42925ee1fd40fae485d7908892a0b4ff5997b02587f8fa8347ea564c9be8",
    ("HopLander", "RNSGA2"):
        "b9a751f178004ede4500af27ca455422c3c7eb72942449d149961d5ae7fc49c4",
    ("NoisyPointWalker", "GA"):
        "5c398a8a1d2cfb555c5bc4c5afbd69abe40aa0b6aab71e2d0dc0806e57dcc129",
    ("NoisyPointWalker", "DE"):
        "160224c806090d7a39f08f80ed4fd46344ba16d9688656d9354df15457fb55c5",
    ("NoisyPointWalker", "PSO"):
        "4bb700ae6f5b8d538af45090aff5ff8e645cda76ff3c03504ef5e6b915886471",
    ("NoisyPointWalker", "NSGA2"):
        "bca6a5eb2c11291c468887b4b04284197b0569dd882267ec6cbfd16da8c095ff",
    ("NoisyPointWalker", "SPEA2"):
        "baa37a52b062621f2f16c6a95f367a9f48a3d72396cc0653e149edee8fa0eda6",
    ("NoisyPointWalker", "SMSEMOA"):
        "535bb934dfb273502264e587b8f4333aad04a4e7338cd54eb81ec6728209ce9e",
    ("NoisyPointWalker", "NSGA3"):
        "d6e361e4e42b8b5f72c6df450fe1a68a892d8132f6f0d84aa6c75bbb0a88b959",
    ("NoisyPointWalker", "RNSGA2"):
        "6decc4270ff9d7785940d7b38d35311e23e832ec1844c2daec43800e631a2fd4",
}

MULTI_EPISODE = {
    ("NoisyPointWalker", "NSGA2"):
        "17348f8c0dd3cc563ccccf727b335a34a8216eab6811874c9011c12f5a2ff5d2",
    ("HopLander", "NSGA2"):
        "4b928b70a34a0de25aabffe3bd0f0c2c3331ed0592d7677aade15902e1edeab4",
}

WORKLOAD_SCALE = (("SPEA2", "SMSEMOA", "NSGA3", "RNSGA2"),
                  "94c53a20e73164a2ca5c12d9a99d17824dc8d8ed3255c26bf2bf692ebf1b00c6")

CUSTOM_REFERENCE = ("HopLander", (10.0, 20.0, -5.0, -5.0, 15.0, -20.0),
                    "a942d6ef70928894bcb1852cd5793855c2dc59dca33c9e092dfed501eb7ab12f")

STEADY_STATE = (("SMSEMOA", "SPEA2"),
                "1cc219947dc57b05b3f38289e57148858e44080c81ff22fe34d6d91c23c095a3")

NOISY = ("HopLander", "NSGA2", 0.5,
         "b5f37829beeaf8db5bc4a05fb35d36160be79ac40c387a1c624389e031079603")


def golden_config(environment: str, algorithm: str, n_episodes: int = 1) -> ExperimentConfig:
    return ExperimentConfig(environment=environment, algorithms=(algorithm,),
                            pop_size=8 if environment == "NoisyPointWalker" else 10,
                            generations=4, n_episodes=n_episodes, n_runs=2, master_seed=3)


def output_digest(config: ExperimentConfig, directory) -> str:
    """SHA-256 of metrics.csv followed by fronts.csv, written as the CLI does."""
    rows, reference, fronts = harness.compute_metrics(harness.run_experiment(config))
    harness.write_metrics_csv(rows, directory / "metrics.csv")
    harness.write_fronts_csv(reference, fronts, directory / "fronts.csv")
    h = hashlib.sha256()
    for name in ("metrics.csv", "fronts.csv"):
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def test_golden_cases_cover_the_roster():
    expected = ({("TradeoffBandit", a) for a in ALL} | {("HopLander", a) for a in MOEAS}
                | {("NoisyPointWalker", a) for a in ALL})
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("environment,algorithm", list(GOLDEN),
                         ids=[f"{e}-{a}" for e, a in GOLDEN])
def test_output_digest_is_pinned(environment, algorithm, tmp_path):
    found = output_digest(golden_config(environment, algorithm), tmp_path)
    assert found == GOLDEN[(environment, algorithm)], (
        f"{algorithm} on {environment}: output digest changed")


@pytest.mark.parametrize("environment,algorithm", list(MULTI_EPISODE),
                         ids=[f"{e}-{a}" for e, a in MULTI_EPISODE])
def test_multi_episode_output_digest_is_pinned(environment, algorithm, tmp_path):
    found = output_digest(golden_config(environment, algorithm, n_episodes=3), tmp_path)
    assert found == MULTI_EPISODE[(environment, algorithm)], (
        f"{algorithm} on {environment} at 3 episodes: output digest changed")


def test_noisy_output_digest_is_pinned(tmp_path):
    environment, algorithm, sigma, expected = NOISY
    config = dataclasses.replace(golden_config(environment, algorithm, n_episodes=3), sigma=sigma)
    assert output_digest(config, tmp_path) == expected, (
        f"{algorithm} on {environment} at sigma {sigma}: output digest changed")


def test_custom_reference_output_digest_is_pinned(tmp_path):
    environment, points, expected = CUSTOM_REFERENCE
    config = dataclasses.replace(golden_config(environment, "RNSGA2"),
                                 rnsga2_reference_points=points)
    assert output_digest(config, tmp_path) == expected, (
        f"RNSGA2 on {environment} with custom reference points: output digest changed")


def test_workload_scale_output_digest_is_pinned(tmp_path):
    algorithms, expected = WORKLOAD_SCALE
    config = ExperimentConfig(environment="TradeoffBandit", algorithms=algorithms, pop_size=50,
                              generations=3, n_episodes=1, n_runs=2, master_seed=3)
    assert output_digest(config, tmp_path) == expected, (
        "TradeoffBandit at pop 50: output digest changed")


def test_steady_state_output_digest_is_pinned(tmp_path):
    algorithms, expected = STEADY_STATE
    config = ExperimentConfig(environment="NoisyPointWalker", algorithms=algorithms, pop_size=50,
                              generations=4, n_episodes=1, n_runs=2, master_seed=3)
    assert output_digest(config, tmp_path) == expected, (
        "SMS-EMOA and SPEA2 on NoisyPointWalker at pop 50: output digest changed")
