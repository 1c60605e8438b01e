"""Fault injection and image-wise vulnerability measurement for object detection."""

from odfault.bits import (
    FP32,
    FaultDescriptor,
    FaultMode,
    FaultTarget,
    ShapeCatalog,
    apply_fault,
    classify_value,
    rescale_rate,
    sample_fault,
)
from odfault.geometry import Box, Detection, clip, iou, mask_diff, nms, rasterize

__version__ = "0.1.0"

__all__ = [
    "FP32",
    "FaultDescriptor",
    "FaultMode",
    "FaultTarget",
    "ShapeCatalog",
    "apply_fault",
    "classify_value",
    "rescale_rate",
    "sample_fault",
    "Box",
    "Detection",
    "clip",
    "iou",
    "mask_diff",
    "nms",
    "rasterize",
]
