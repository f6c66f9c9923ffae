"""Harness of the repository benchmark: workloads and layer tracing."""
