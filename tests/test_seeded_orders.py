"""The seeded ZF/RZF sweep of ``test_seeded_sweep.py`` at the other orders.

``test_seeded_sweep.py`` pins all four schemes at 16-QAM only. These pins run
ZF and RZF on the same 4×4, M=10 system with four channels and seed 2026 at
4-, 64- and 256-QAM, each over three SNR points where errors still occur
(about 0.3 s in all). So a change to the slicer, the Gray map or the noise
draw that only shows at another order fails here. ``n_bits`` and
``n_errors`` are compared exactly and ``mean_f`` to 1e-9 relative. They
were recorded at commit 8cd1f39 from ``run_monte_carlo(config, scheme)``.
"""

import pytest

from slpsim.link_sim import LinkConfig, Scheme, run_monte_carlo

SNR_DB = {4: (0.0, 10.0, 20.0), 64: (10.0, 20.0, 30.0), 256: (10.0, 25.0, 40.0)}

# (n_bits, n_errors, mean_f) at the three SNR points of SNR_DB[order]
PINNED = {
    (4, Scheme.ZF): [(320, 102, 6.116385660229659), (320, 46, 8.120837280954573),
                     (320, 3, 9.790764779102556)],
    (4, Scheme.RZF): [(320, 68, 1.3411284861327348), (320, 14, 3.574842431528478),
                      (320, 2, 6.638504462985722)],
    (64, Scheme.ZF): [(960, 244, 6.116385660229659), (960, 99, 8.120837280954573),
                      (960, 17, 9.790764779102556)],
    (64, Scheme.RZF): [(960, 215, 3.5014010544977916), (960, 92, 6.780135422990659),
                       (960, 18, 9.184922608299114)],
    (256, Scheme.ZF): [(1280, 413, 6.116385660229659), (1280, 134, 8.120837280954573),
                       (1280, 7, 9.790764779102556)],
    (256, Scheme.RZF): [(1280, 382, 3.5014010544977916), (1280, 143, 7.619058098203636),
                        (1280, 7, 9.723537429769504)],
}


@pytest.mark.parametrize("order, scheme", list(PINNED),
                         ids=lambda v: v.value if isinstance(v, Scheme) else f"{v}QAM")
def test_seeded_block_level_sweep_is_pinned(order, scheme):
    config = LinkConfig(users=4, antennas=4, block_len=10, modulation=order,
                        snr_db=SNR_DB[order], channels=4, seed=2026)
    records = run_monte_carlo(config, scheme)
    expected = PINNED[order, scheme]
    assert [r.snr_db for r in records] == list(SNR_DB[order])
    assert [(r.n_bits, r.n_errors) for r in records] == [(b, e) for b, e, _ in expected]
    assert [r.mean_f for r in records] == pytest.approx([f for _, _, f in expected], rel=1e-9)
    assert all(r.n_failed == 0 for r in records)
