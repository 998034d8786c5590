"""Image quality metric: PSNR, the paper's metric."""

from repro.quality.psnr import mse, psnr, PSNR_IDENTICAL_CAP

__all__ = ["mse", "psnr", "PSNR_IDENTICAL_CAP"]
