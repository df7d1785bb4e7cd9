"""The repository's benchmark: four workloads, host-time metrics, a layer ledger."""
