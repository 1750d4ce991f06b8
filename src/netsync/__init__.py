"""Synchronization analysis for coupled map lattices on time-varying networks."""

from .cml import criterion, logistic, simulate
from .estimators import (
    estimate_hajnal_diameter,
    estimate_projection_jsr,
    estimate_scalar_lyapunov,
    estimate_sigma1,
)
from .hajnal import diam, is_scrambling
from .jsr import JsrBounds, gripenberg
from .linalg import spectral_radius
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
    "criterion",
    "diam",
    "estimate_hajnal_diameter",
    "estimate_projection_jsr",
    "estimate_scalar_lyapunov",
    "estimate_sigma1",
    "gripenberg",
    "is_scrambling",
    "logistic",
    "simulate",
    "spectral_radius",
]
