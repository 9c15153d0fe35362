"""Named end-to-end configurations.

atg4d-like: 150 x 100 m grid at 0.16 m, 64-beam LiDAR, RV 2048 x 64,
90-degree camera at 1920 x 1200 with a 438-pixel top crop, T = 10 sweeps
at 10 Hz. nuscenes-like: 100 x 100 m at 0.125 m, 32 beams, RV 2048 x 32,
70-degree 1600 x 900 camera uncropped, T = 10 at 20 Hz. Both predict 30
future states at 10 Hz. The desk preset shrinks every surface so full
forward passes and benchmarks run in seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .network import FusionConfig
from .scene import (
    LidarSensorSpec,
    SceneConfig,
    rv_spec_for,
    sensor_32_beam,
    sensor_64_beam,
    uniform_elevations,
)
from .views import CameraModel, GridSpec, RvSpec


@dataclass(frozen=True)
class Preset:
    name: str
    grid: GridSpec
    sensor: LidarSensorSpec
    camera: CameraModel
    sweep_count: int
    sweep_period: float
    fusion: FusionConfig
    scene: SceneConfig
    range_bands: tuple = ((0.0, 25.0), (25.0, 50.0))

    @property
    def rv(self) -> RvSpec:
        return rv_spec_for(self.sensor)

    @property
    def horizon(self) -> int:
        return self.fusion.horizon


def _desk_sensor() -> LidarSensorSpec:
    return LidarSensorSpec(
        beams=16,
        elevations=uniform_elevations(16, 2.0, -20.0),
        azimuth_step=2.0 * math.pi / 512.0,
        max_range=60.0,
    )


def _atg4d() -> Preset:
    return Preset(
        name="atg4d",
        grid=GridSpec(150.0, 100.0, 3.2, 0.16, 0.16, 0.2),
        sensor=sensor_64_beam(),
        camera=CameraModel.from_fov(1920, 1200, 90.0, crop_top=438),
        sweep_count=10,
        sweep_period=0.1,
        fusion=FusionConfig(),
        scene=SceneConfig(vehicles=4, pedestrians=2, bicyclists=1, extent=35.0, ego_speed=2.0),
        range_bands=((0.0, 75.0), (0.0, 25.0), (25.0, 50.0), (50.0, 75.0)),
    )


def _nuscenes() -> Preset:
    return Preset(
        name="nuscenes",
        grid=GridSpec(100.0, 100.0, 8.0, 0.125, 0.125, 0.2, forward_fraction=0.5),
        sensor=sensor_32_beam(),
        camera=CameraModel.from_fov(1600, 900, 70.0),
        sweep_count=10,
        sweep_period=0.05,
        fusion=FusionConfig(),
        scene=SceneConfig(vehicles=4, pedestrians=2, bicyclists=1, extent=35.0, ego_speed=2.0),
        range_bands=((0.0, 50.0), (0.0, 25.0), (25.0, 50.0)),
    )


def _desk() -> Preset:
    return Preset(
        name="desk",
        grid=GridSpec(48.0, 32.0, 3.2, 0.5, 0.5, 0.8),
        sensor=_desk_sensor(),
        camera=CameraModel.from_fov(96, 64, 90.0),
        sweep_count=3,
        sweep_period=0.1,
        fusion=FusionConfig(
            rv_width=16,
            cam_widths=(8, 8, 16, 16, 32, 32),
            unet_width=32,
            bev_embed_width=16,
            bev_width=32,
            head_widths=(32, 32, 64, 64, 64, 64),
        ),
        scene=SceneConfig(vehicles=3, pedestrians=2, bicyclists=1, extent=14.0, ego_speed=1.0),
    )


_BUILDERS = {"atg4d": _atg4d, "nuscenes": _nuscenes, "desk": _desk}


def preset_names() -> list[str]:
    return sorted(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}, expected one of {preset_names()}") from None


def bev_stack_channels(preset: Preset) -> int:
    return preset.sweep_count * preset.grid.z_cells
