"""A small seeded sweep, pinned end to end: the gate for any change that is
meant to leave the engine's output as it is.

The fixture runs all four schemes of a 4×4, M=10, 16-QAM system over three
SNR points and four channels with seed 2026 (about 0.6 s). ``PINNED`` holds
each point's ``n_bits`` and ``n_errors``, compared exactly, and its
``mean_f``, compared to 1e-9 relative. They were recorded at commit 9cadab3,
from ``run_monte_carlo(FIXTURE, scheme)`` for each scheme.

Every error count depends on the whole chain: the seed layout, the bit and
noise draws, the Gray map, the CI solves, the power allocation, the broadcast
quantization and the slicer. So a refactor that moves any of them fails here,
even when each unit test still passes. Only re-pin for a change that is meant
to move outputs, such as serving both SLP schemes from one solve per symbol
(ROADMAP item 2), which changes the random streams, and say why.
"""

import pytest

from slpsim.link_sim import LinkConfig, Scheme, run_monte_carlo

FIXTURE = LinkConfig(users=4, antennas=4, block_len=10, snr_db=(0.0, 10.0, 20.0),
                     channels=4, seed=2026)

# (n_bits, n_errors, mean_f) at 0, 10 and 20 dB
PINNED = {
    Scheme.SLP_IN_BLOCK: [(640, 233, 5.99933635991984), (640, 152, 7.659526800578066),
                          (640, 37, 9.836935135825328)],
    Scheme.SLP_UNIFORM: [(640, 216, 5.763832793180728), (640, 136, 7.284820095518572),
                         (640, 31, 8.89994224358147)],
    Scheme.ZF: [(640, 232, 6.116385660229659), (640, 168, 8.120837280954573),
                (640, 42, 9.790764779102556)],
    Scheme.RZF: [(640, 207, 1.3411284861327348), (640, 131, 3.574842431528478),
                 (640, 27, 6.638504462985722)],
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_seeded_sweep_is_pinned(scheme):
    records = run_monte_carlo(FIXTURE, scheme)
    assert [r.snr_db for r in records] == list(FIXTURE.snr_db)
    assert [(r.n_bits, r.n_errors) for r in records] == [(b, e) for b, e, _ in PINNED[scheme]]
    assert [r.mean_f for r in records] == pytest.approx([f for _, _, f in PINNED[scheme]], rel=1e-9)
    assert all(r.n_failed == 0 for r in records)
