"""Whole-frame benchmark of the simulator: four workloads, host time per
layer, every design plus the Fig. 15 quality render.  See README.md."""
