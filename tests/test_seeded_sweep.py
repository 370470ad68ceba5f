"""A small seeded sweep at every order, pinned end to end: the gate for any
change that is meant to leave the engine's output as it is.

The fixture runs all four schemes of a 4×4, M=10 system with four channels
and seed 2026 at 4-, 16-, 64- and 256-QAM, each over three SNR points where
errors still occur (about 1 s in all). ``PINNED`` holds each point's
``n_bits`` and ``n_errors``, compared exactly, and its ``mean_f``, compared
to 1e-9 relative, from ``run_monte_carlo(config, scheme)``. Every entry was
recorded when each trial got one substream shared by every SNR point (the
common-random-numbers layout of ROADMAP item 2), after 789c383: so ``mean_f``
is the same at each SNR point of every scheme but RZF, whose ridge depends
on the noise variance.

Every error count depends on the whole chain: the seed layout, the bit and
noise draws, the Gray map, the CI solves, the power allocation, the broadcast
and the slicer. So a refactor that moves any of them fails here, even when
each unit test still passes. Only re-pin for a change that is meant to move
outputs, and say why. Sharing one CI solve between the SLP schemes and SNR
points, the stacked receive path (item 2) and one pool per run (item 13)
leave every output byte-identical and must not re-pin it.
"""

import pytest

from slpsim.link_sim import LinkConfig, Scheme, run_monte_carlo

SNR_DB = {4: (0.0, 10.0, 20.0), 16: (0.0, 10.0, 20.0), 64: (10.0, 20.0, 30.0),
          256: (10.0, 25.0, 40.0)}

# (n_bits, n_errors, mean_f) at the three SNR points of SNR_DB[order]
PINNED = {
    (4, Scheme.SLP_IN_BLOCK): [(320, 86, 8.169953625127388), (320, 25, 8.169953625127388),
                               (320, 3, 8.169953625127388)],
    (4, Scheme.SLP_UNIFORM): [(320, 82, 7.431548718720364), (320, 20, 7.431548718720364),
                              (320, 2, 7.431548718720364)],
    (4, Scheme.ZF): [(320, 95, 12.025005023752488), (320, 42, 12.025005023752488),
                     (320, 15, 12.025005023752488)],
    (4, Scheme.RZF): [(320, 76, 1.3356705872409609), (320, 19, 3.431226698052317),
                      (320, 2, 5.769008047697308)],
    (16, Scheme.SLP_IN_BLOCK): [(640, 257, 12.568312365101082), (640, 127, 12.568312365101082),
                                (640, 41, 12.568312365101082)],
    (16, Scheme.SLP_UNIFORM): [(640, 242, 11.6582312036184), (640, 124, 11.6582312036184),
                               (640, 36, 11.6582312036184)],
    (16, Scheme.ZF): [(640, 260, 12.025005023752488), (640, 133, 12.025005023752488),
                      (640, 49, 12.025005023752488)],
    (16, Scheme.RZF): [(640, 229, 1.3356705872409609), (640, 108, 3.431226698052317),
                       (640, 30, 5.769008047697308)],
    (64, Scheme.SLP_IN_BLOCK): [(960, 283, 11.342896884754776), (960, 116, 11.342896884754776),
                                (960, 27, 11.342896884754776)],
    (64, Scheme.SLP_UNIFORM): [(960, 265, 10.446120848823302), (960, 109, 10.446120848823302),
                               (960, 26, 10.446120848823302)],
    (64, Scheme.ZF): [(960, 286, 12.025005023752488), (960, 124, 12.025005023752488),
                      (960, 37, 12.025005023752488)],
    (64, Scheme.RZF): [(960, 242, 3.431226698052317), (960, 96, 5.769008047697308),
                       (960, 30, 9.848926324423966)],
    (256, Scheme.SLP_IN_BLOCK): [(1280, 436, 12.624466858639433), (1280, 166, 12.624466858639433),
                                 (1280, 30, 12.624466858639433)],
    (256, Scheme.SLP_UNIFORM): [(1280, 422, 11.881351868715834), (1280, 138, 11.881351868715834),
                                (1280, 17, 11.881351868715834)],
    (256, Scheme.ZF): [(1280, 442, 12.025005023752488), (1280, 165, 12.025005023752488),
                       (1280, 28, 12.025005023752488)],
    (256, Scheme.RZF): [(1280, 409, 3.431226698052317), (1280, 154, 7.723988007633485),
                        (1280, 28, 11.734689320258775)],
}


# 16-QAM, the default order, is named by its scheme alone
@pytest.mark.parametrize("order, scheme", list(PINNED),
                         ids=[s.value if o == 16 else f"{o}QAM-{s.value}" for o, s in PINNED])
def test_seeded_sweep_is_pinned(order, scheme):
    config = LinkConfig(users=4, antennas=4, block_len=10, modulation=order,
                        snr_db=SNR_DB[order], channels=4, seed=2026)
    records = run_monte_carlo(config, scheme)
    expected = PINNED[order, scheme]
    assert [r.snr_db for r in records] == list(SNR_DB[order])
    assert [(r.n_bits, r.n_errors) for r in records] == [(b, e) for b, e, _ in expected]
    assert [r.mean_f for r in records] == pytest.approx([f for _, _, f in expected], rel=1e-9)
    assert all(r.n_failed == 0 for r in records)
