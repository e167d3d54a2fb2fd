"""Toolkit for pulsed up-conversion single-photon detection of femtosecond
time-bin qubits: gate response models, detector efficiency and noise chains,
Monte Carlo delay scans, and the matching analysis routines."""

__version__ = "0.1.0"
