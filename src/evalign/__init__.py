"""Behavior-driven relative distance estimation from event-camera data.

The pipeline mimics gaze stabilization: per image region, a virtual
rotation is sought whose flow field best re-aligns the region's events
(negative-binomial count likelihood over the warped count image). Because
that compensatory flow scales with inverse depth, comparing a region's flow
against the largest region's flow yields the relative distance, which a
scalar Kalman filter tracks over time.
"""

from .align import (
    AlignmentResult,
    RegionEstimate,
    align_window,
    align_window_3dof,
    estimate_direction,
    estimate_magnitude,
)
from .core import (
    CameraIntrinsics,
    Events,
    EventWindow,
    RegionMask,
    slice_windows,
    slice_windows_count,
)
from .depth import (
    DepthRow,
    DistanceTrack,
    estimate_window_depth,
    region_flows,
    relative_distance,
    select_reference,
    track_predict,
    track_update,
)
from .likelihood import (
    MagnitudeGrid,
    NBParams,
    WindowObjective,
    marginal_from_objective,
    nb_log_pmf,
)
from .synth import (
    MotionSpec,
    PlaneSpec,
    SceneSpec,
    SynthResult,
    analytic_compensation,
    generate,
)
from .warp import (
    AngularVelocity2,
    AngularVelocity3,
    FlowVector,
    ImuTrace,
    derotate,
    rot_flow,
)

__version__ = "0.1.0"
