"""opscale: unitary discrete signal scaling from DFT-consistent operators.

The package builds discrete coordinate-multiplication and
differentiation matrices that are exact Fourier duals on the sampling
grid, combines them into a Hermitian generator, and exponentiates that
generator into a unitary scaling matrix — plus a dilated-Hermite
comparison method, an interpolation baseline, analytic test signals, and
a benchmark harness that scores all of them.
"""

__version__ = "0.1.0"

from .linalg import (
    HermitianEigenDecomposition,
    ParityEigenDecomposition,
    adjoint,
    hermitian_eig,
    matmul,
    parity_eig,
    unitary_from_eig,
    unitary_function_of_hermitian,
)
from .dft import IndexScheme, SampleGrid, dft_matrix, index_grid
from .operators import (
    OperatorSet,
    coord_matrix,
    diff_matrix,
    operator_set,
    scaling_generator,
)
from .scaling import ScalingSpec, scale_signal, scaling_matrix
from .pei import (
    CddhfBasis,
    cddhf_basis,
    pei_centered_dft,
    pei_d_squared,
    pei_scale,
    pei_u_squared,
)
from .signals import TestFunction, evaluate, sample, scaled_reference, tri
from .bench import (
    BenchTable,
    Method,
    MseRecord,
    emit_table,
    interp_scale,
    nmse_percent,
    run_bench,
)

__all__ = [
    "__version__",
    "HermitianEigenDecomposition",
    "ParityEigenDecomposition",
    "adjoint",
    "hermitian_eig",
    "matmul",
    "parity_eig",
    "unitary_from_eig",
    "unitary_function_of_hermitian",
    "IndexScheme",
    "SampleGrid",
    "dft_matrix",
    "index_grid",
    "OperatorSet",
    "coord_matrix",
    "diff_matrix",
    "operator_set",
    "scaling_generator",
    "ScalingSpec",
    "scale_signal",
    "scaling_matrix",
    "CddhfBasis",
    "cddhf_basis",
    "pei_centered_dft",
    "pei_d_squared",
    "pei_scale",
    "pei_u_squared",
    "TestFunction",
    "evaluate",
    "sample",
    "scaled_reference",
    "tri",
    "BenchTable",
    "Method",
    "MseRecord",
    "emit_table",
    "interp_scale",
    "nmse_percent",
    "run_bench",
]
