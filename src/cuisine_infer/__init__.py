"""Infer restaurant cuisine types from payment-card transaction logs."""

__version__ = "0.1.0"

# The environment variables that set the BLAS thread count, read when numpy
# loads. The command line sets each to 1 unless it is set, and `nnet.train`
# forks a helper only when each is 1.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
