"""Link-level simulator for interference-exploiting symbol-level precoding.

Per-symbol max-min constructive-interference precoding for square QAM, a
closed-form in-block power allocation that makes the receiver rescaling
factor constant over a transmission block, ZF/RZF baselines, and a seeded
Monte Carlo engine for BER / throughput sweeps.
"""

__version__ = "0.1.0"
