"""Result analysis: EXPERIMENTS.md generation, the flight report, run
tables and repetition statistics.

Import the submodule you need (`repro.analysis.report`, `.flight`,
`.runtable`, `.stats`); the paper's reported values live with the claims
judged on them, in `repro.obs.fidelity`.
"""
