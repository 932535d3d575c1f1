"""Simulation and analysis of optically assisted nuclear spin polarization.

The package models a spin-1 electron coupled to one spin-1/2 nucleus, driven
by interleaved laser and microwave pulse schedules and relaxed through a
small set of Lindblad channels. On top of the propagator sit the standard
numerical experiments: detuning sweeps, cycle-by-cycle buildup, field and
coupling maps, fringe-based readout of the nuclear state, and a closed-loop
fit that recovers the hyperfine couplings from a polarization curve.
"""

__version__ = "0.1.0"
