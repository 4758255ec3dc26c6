"""Benchmark of the poclab acceptance sweep.

`python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
runs one workload from the root of a checkout and prints its metrics;
`python3 perfbench/record.py` re-records the golden fingerprints from the
current engine.  The benchmark imports the program from `src/` of the
same checkout and from nowhere else.
"""
