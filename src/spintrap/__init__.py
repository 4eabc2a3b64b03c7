"""Spin-trap electrical readout simulator for phosphorus donors in silicon.

Simulates the high-field pulsed EDMR experiment end to end: field-swept
spectra of the hyperfine-split donor lines, Bloch-vector pulse-sequence
dynamics with spectral diffusion, spin-to-charge conversion through
Pauli-blocked capture and reemission, and least-squares recovery of the
relaxation times from the simulated traces.

The package root imports nothing: import what you use from its modules
(``spintrap.blochsim``, ``spintrap.fitkit``, ...), so that a command-line
call loads only the modules its command runs.
"""

__version__ = "0.1.0"
