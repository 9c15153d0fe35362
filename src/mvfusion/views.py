"""The three view geometries and the feature-map container they index.

A FeatureMap is the common currency of the pipeline: a dense (height,
width, channels) grid tagged with its view (bev / rv / camera) and the
geometry object that maps points into it. The projectors here map arrays
of points to their cells in one view, with a validity mask for the points
that leave it; they are the building blocks of cross-view feature
projection.

Cell membership everywhere uses half-open intervals [min, min + step):
a coordinate exactly on the upper boundary of the last cell is dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .geometry import Pose2, se2_inverse

BEV = "bev"
RV = "rv"
CAMERA = "camera"

# tolerance for "extent/step is really an integer" when counting cells
_RATIO_EPS = 1e-9


def cell_count(extent: float, step: float) -> int:
    """Ceiling cell count, robust to float noise in exact-ratio configs."""
    return int(math.ceil(extent / step - _RATIO_EPS))


@dataclass(frozen=True)
class GridSpec:
    """BEV metric grid centered on the SDV.

    length/width/height are the x/y/z extents in meters; cell_* are the
    voxel sizes. The x extent is split forward_fraction ahead of the SDV
    and the rest behind; y is centered; z starts at z_min. Rows index x,
    columns index y.
    """

    length: float
    width: float
    height: float
    cell_length: float
    cell_width: float
    cell_height: float
    forward_fraction: float = 2.0 / 3.0
    z_min: float = 0.0

    def __post_init__(self):
        for v in (self.length, self.width, self.height, self.cell_length, self.cell_width, self.cell_height):
            if not v > 0.0:
                raise ValueError("grid extents and cell sizes must be positive")
        if not 0.0 <= self.forward_fraction <= 1.0:
            raise ValueError("forward_fraction must be in [0, 1]")

    @property
    def rows(self) -> int:
        return cell_count(self.length, self.cell_length)

    @property
    def cols(self) -> int:
        return cell_count(self.width, self.cell_width)

    @property
    def z_cells(self) -> int:
        return cell_count(self.height, self.cell_height)

    @property
    def x_min(self) -> float:
        return -self.length * (1.0 - self.forward_fraction)

    @property
    def y_min(self) -> float:
        return -0.5 * self.width


@dataclass(frozen=True)
class RvSpec:
    """Range-view raster: one row per laser beam, azimuth binned into columns."""

    rows: int
    cols: int
    elevations: tuple = ()  # per-row beam elevation, radians, strictly decreasing

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rv raster must have positive size")
        elev = tuple(float(e) for e in self.elevations)
        object.__setattr__(self, "elevations", elev)
        if elev:
            if len(elev) != self.rows:
                raise ValueError("need one elevation per row")
            if any(b >= a for a, b in zip(elev, elev[1:])):
                raise ValueError("elevations must be strictly decreasing by row")


@dataclass(frozen=True)
class CameraModel:
    """Pinhole front camera with an optional top crop.

    Intrinsics are in pixels; mount is the planar pose of the camera in the
    ego frame plus a mount height. Projected pixel coordinates are in the
    cropped image (row 0 is the first row below the crop).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    crop_top: int = 0
    mount: Pose2 = field(default_factory=Pose2)
    mount_height: float = 1.6
    hfov_deg: float | None = None

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not 0 <= self.crop_top < self.height:
            raise ValueError("crop_top must be inside the image")
        derived = math.degrees(2.0 * math.atan(0.5 * self.width / self.fx))
        if self.hfov_deg is None:
            object.__setattr__(self, "hfov_deg", derived)
        elif abs(self.hfov_deg - derived) > 1e-6:
            raise ValueError(f"hfov {self.hfov_deg} inconsistent with fx/width ({derived})")

    @classmethod
    def from_fov(cls, width: int, height: int, hfov_deg: float, crop_top: int = 0,
                 mount: Pose2 | None = None, mount_height: float = 1.6) -> "CameraModel":
        fx = 0.5 * width / math.tan(math.radians(hfov_deg) / 2.0)
        return cls(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0, width=width,
                   height=height, crop_top=crop_top, mount=mount or Pose2(),
                   mount_height=mount_height)

    @property
    def cropped_height(self) -> int:
        return self.height - self.crop_top


@dataclass(frozen=True)
class CameraGeometry:
    """Geometry handle for camera-view feature maps.

    pixel_stride maps full-resolution (cropped) pixels onto feature cells,
    e.g. 8 after three stride-2 convolutions.
    """

    camera: CameraModel
    pixel_stride: int = 1


@dataclass(frozen=True)
class OutputGrid:
    """BEV output lattice of the detection head: the input grid at a stride."""

    rows: int
    cols: int
    x_min: float
    y_min: float
    step_x: float
    step_y: float

    @classmethod
    def from_grid(cls, grid: GridSpec, stride: int) -> "OutputGrid":
        return cls(
            rows=-(-grid.rows // stride),
            cols=-(-grid.cols // stride),
            x_min=grid.x_min,
            y_min=grid.y_min,
            step_x=grid.cell_length * stride,
            step_y=grid.cell_width * stride,
        )

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates: (rows,) x-values and (cols,) y-values."""
        xs = self.x_min + (np.arange(self.rows) + 0.5) * self.step_x
        ys = self.y_min + (np.arange(self.cols) + 0.5) * self.step_y
        return xs, ys


@dataclass
class FeatureMap:
    """A view-tagged dense grid of feature vectors, shape (height, width, channels)."""

    view: str
    data: np.ndarray
    geometry: object = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError(f"feature map data must be (H, W, C), got shape {self.data.shape}")
        if self.view not in (BEV, RV, CAMERA):
            raise ValueError(f"unknown view tag {self.view!r}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


# ---------------------------------------------------------------------------
# point projectors
# ---------------------------------------------------------------------------

def bev_cells_of(x: np.ndarray, y: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar BEV cells of points with coordinates x, y: (rows, cols, valid)."""
    rows = np.floor((x - grid.x_min) / grid.cell_length).astype(np.int64)
    cols = np.floor((y - grid.y_min) / grid.cell_width).astype(np.int64)
    valid = (rows >= 0) & (rows < grid.rows) & (cols >= 0) & (cols < grid.cols)
    return rows, cols, valid


def rv_cells_of(laser: np.ndarray, azimuth: np.ndarray, rv: RvSpec) -> tuple[np.ndarray, np.ndarray]:
    """RV cells of LiDAR returns: laser ID is the row, azimuth in [0, 2*pi) bins the column."""
    if laser.size and (laser.min() < 0 or laser.max() >= rv.rows):
        raise ValueError("laser ID outside RV rows")
    if azimuth.size and (azimuth.min() < 0.0 or azimuth.max() >= 2.0 * math.pi):
        raise ValueError("azimuth outside [0, 2*pi)")
    cols = np.minimum((azimuth / (2.0 * math.pi) * rv.cols).astype(np.int64), rv.cols - 1)
    return laser.astype(np.int64), cols


def camera_pixels_of(xyz: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pinhole projection of (N, 3) ego-frame points.

    Returns (rows, cols, valid); rows/cols are meaningless where valid is
    False. Row coordinates are in the cropped image.
    """
    inv = se2_inverse(cam.mount)
    c, s = math.cos(inv.yaw), math.sin(inv.yaw)
    x = c * xyz[:, 0] - s * xyz[:, 1] + inv.tx
    y = s * xyz[:, 0] + c * xyz[:, 1] + inv.ty
    z = xyz[:, 2] - cam.mount_height
    # camera axes: forward = +x, right = -y, down = -z
    depth = x
    in_front = depth > 1e-9
    safe = np.where(in_front, depth, 1.0)
    u = cam.cx + cam.fx * (-y) / safe
    v = cam.cy + cam.fy * (-z) / safe
    cols = np.floor(u).astype(np.int64)
    rows_full = np.floor(v).astype(np.int64)
    valid = (
        in_front
        & (cols >= 0)
        & (cols < cam.width)
        & (rows_full >= cam.crop_top)
        & (rows_full < cam.height)
    )
    return rows_full - cam.crop_top, cols, valid
