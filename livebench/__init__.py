"""Live-search benchmark: cold, fixed-seed GEVO searches and the Figure 7 analysis.

``python3 livebench/run.py`` runs every workload and prints its end-to-end
metrics; ``--workload W --seed N --seconds S --trace 0|1`` runs one
workload and ends with a one-line JSON result.  See ``livebench/NOTES.md``.
"""
