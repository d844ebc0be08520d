"""The repository's benchmark: workloads, tracer and metrics (see README.md)."""
