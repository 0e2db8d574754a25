"""The repository's benchmark: see ``perf/README.md``."""
