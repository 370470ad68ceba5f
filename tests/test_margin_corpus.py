"""Fixed seeded margin corpus: the gate for any change to the CI solver.

Every (modulation, system size) cell draws one channel and one block of
CORPUS_BLOCK_LEN symbol vectors from ``trial_rng(CORPUS_SEED, order, K, N_T)``
and solves the whole block through ``slp_core.solve_block``, as the sweep
does. ``margin_corpus.json`` holds the margins of every cell as solved at
commit 46ed7a1, before the channel-invariant coupling rows were cached. They
were written by running this module as a script from the repository root:

    PYTHONPATH=src python tests/test_margin_corpus.py

Rerunning that overwrites the pinned values, so only do it for a change that
is meant to move the margins, and say why.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from slpsim.channel import generate_channel, trial_rng
from slpsim.constellation import build_constellation
from slpsim.slp_core import SolverStatus, solve_block

CORPUS = Path(__file__).with_name("margin_corpus.json")
CORPUS_SEED = 2026
CORPUS_BLOCK_LEN = 20
ORDERS = (4, 16, 64, 256)
SIZES = ((1, 1), (2, 2), (4, 4), (3, 6), (12, 12))
CELLS = [(order, users, antennas) for order in ORDERS for users, antennas in SIZES]


def _cell_id(order, users, antennas):
    return f"{order}qam-{users}x{antennas}"


def solve_cell(order, users, antennas):
    """Statuses and margins of one corpus cell's block."""
    spec = build_constellation(order)
    rng = trial_rng(CORPUS_SEED, order, users, antennas)
    channel = generate_channel(users, antennas, rng)
    symbols = spec.points[rng.integers(0, order, (users, CORPUS_BLOCK_LEN))]
    solutions = [sol for _, sol in solve_block(channel, symbols, spec)]
    return [sol.status for sol in solutions], np.array([sol.margin for sol in solutions])


@pytest.mark.parametrize("order, users, antennas", CELLS, ids=[_cell_id(*c) for c in CELLS])
def test_margins_match_the_pinned_corpus(order, users, antennas):
    pinned = np.array(json.loads(CORPUS.read_text())[_cell_id(order, users, antennas)])
    statuses, margins = solve_cell(order, users, antennas)
    assert all(status is SolverStatus.OPTIMAL for status in statuses)
    assert (margins > 0).all()
    np.testing.assert_allclose(margins, pinned, rtol=1e-9, atol=0)


if __name__ == "__main__":
    lines = [f"{json.dumps(_cell_id(*cell))}: {json.dumps(solve_cell(*cell)[1].tolist())}"
             for cell in CELLS]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
