"""Synchronization analysis for coupled map lattices on time-varying networks."""

from .cml import criterion, logistic, simulate
from .estimators import (
    estimate_hajnal_diameter,
    estimate_projection_jsr,
    estimate_scalar_lyapunov,
    estimate_sigma1,
    lyapunov_spectrum_qr,
)
from .hajnal import diam, eta, hajnal_bound_check, is_scrambling
from .jsr import JsrBounds, brute_force_jsr, gripenberg
from .linalg import make_stochastic, project, spectral_radius
from .processes import BlinkingProcess, BlurringProcess
from .sources import DrivenSource, FiniteSetIIDSource, PeriodicSource, StaticSource

__version__ = "0.1.0"

__all__ = [
    "BlinkingProcess",
    "BlurringProcess",
    "DrivenSource",
    "FiniteSetIIDSource",
    "JsrBounds",
    "PeriodicSource",
    "StaticSource",
    "brute_force_jsr",
    "criterion",
    "diam",
    "estimate_hajnal_diameter",
    "estimate_projection_jsr",
    "estimate_scalar_lyapunov",
    "estimate_sigma1",
    "eta",
    "gripenberg",
    "hajnal_bound_check",
    "is_scrambling",
    "logistic",
    "lyapunov_spectrum_qr",
    "make_stochastic",
    "project",
    "simulate",
    "spectral_radius",
]
