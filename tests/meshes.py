"""Every array a mesh holds, for tests that compare two meshes bit for bit."""

from __future__ import annotations

import numpy as np


def mesh_arrays(mesh) -> dict:
    """Each ndarray in ``vars(mesh)``, and the bands the mesh expands from them."""
    arrays = {name: value for name, value in vars(mesh).items() if isinstance(value, np.ndarray)}
    arrays.update(d1_band=mesh.d1_band, d2_band=mesh.d2_band, lap_band=mesh.lap_band(1.0))
    return arrays
