"""The BLAS build that byte-exactness checks name when they fail: whether a
row's bytes depend on its batch is a property of the BLAS kernels."""

import numpy as np


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"rows differ with their batch on BLAS {blas.get('name')} {blas.get('version')}"
            f" ({blas.get('openblas configuration', 'no configuration recorded')})")
