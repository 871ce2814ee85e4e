from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, settings

from conecert import prover
from conecert.interval import Interval
from conecert.prover import EndpointResult, Launch, ProofConfig
from conecert.rtbp import RtbpParams
from exact_replay import Replay

settings.register_profile(
    "ci",
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@dataclass
class SharedChains:
    left: EndpointResult  # run_endpoint("left", ...) at the default config
    band: Launch  # the band chain over the first default fragment
    replay: Replay  # the kernel calls both chains made


@pytest.fixture(scope="session")
def shared_chains() -> SharedChains:
    """The two chains several test modules read, flown once per session
    with the kernels of exact_replay wrapped.  The derivative cache is
    cleared first, so the replay sees both chains' psi terms whatever ran
    before."""
    replay = Replay()
    cfg = ProofConfig.default()
    prover._n_pieces.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        replay.install(mp)
        left = prover.run_endpoint("left", cfg.mu_left, cfg)
        band = prover.launch_chain(
            RtbpParams(Interval(*cfg.fragment_intervals()[0])),
            replace(cfg, alpha_h=cfg.fragment_alpha_h),
            cfg.fragment_subdivision, band=True,
        )
    return SharedChains(left, band, replay)
