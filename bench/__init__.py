"""The end-to-end benchmark of ``BENCHMARK.json`` (see ``bench/README.md``)."""
