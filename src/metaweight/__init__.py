"""Online bilevel sample reweighting with a learned loss-to-weight network.

The package trains a small classifier while simultaneously learning an
MLP that maps each sample's training loss to a weight in [0, 1], guided
by a small clean and balanced meta set. Companion modules generate
synthetically biased datasets (class imbalance, label noise) and run the
experiment harness that checks the method's qualitative behavior.

The public API is the modules (metaweight.config, metaweight.harness,
...); the package root re-exports nothing.
"""
