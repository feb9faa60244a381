"""End-to-end benchmark of the campaign, fleet, serve and learn jobs.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` names the metrics; ``perfbench/spec.json`` records
each workload's operation, loop type, rates and the layer metrics
expected to move its end-to-end numbers.
"""
