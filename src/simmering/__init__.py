"""Finite-temperature dynamics over neural-network parameters.

Instead of driving a loss to a single optimum, the tools here treat the
parameters of a small dense network as particles coupled to a thermostat
chain, hold the system at a target temperature, and harvest an ensemble of
parameter snapshots from the resulting trajectory.  Predictions are then
ensemble averages (regression) or majority votes (classification).

Subpackage layout:

- ``net``          dense feedforward networks on flat parameter vectors
- ``dynamics``     thermostat-chain integrator, schedules, trajectories
- ``optimize``     Adam baseline training and the warm-start handoff
- ``ensemble``     snapshot collection and ensemble prediction
- ``data``         generators, CSV loading, splits, min-max scaling
- ``diagnostics``  regression/classification metrics and Hessian spectra
- ``config``       experiment configuration (JSON)
- ``parallel``     independent jobs on every usable core, in job order
- ``runner``       run-directory pipelines behind the CLI
- ``cli``          command-line entry point
"""

__version__ = "0.1.0"
