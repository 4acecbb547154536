"""An empty layer, kept for the benchmark's tracer.

The single-score baselines are score_features(d).ranking("fisher") and
score_features(d).ranking("mi"); this module defines nothing. It stays because
the tracer (perfbench/tracer.py) imports every module in its LAYERS, this one
included, so `perfbench/run.py --trace 1` fails without it. The tracer also
reads power_iteration's first argument by its name, A.
"""
