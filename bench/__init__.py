"""The engine's benchmark: see bench/README.md."""
