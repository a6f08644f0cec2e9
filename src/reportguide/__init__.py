"""Label-bootstrapped guidance pipeline for medical report generation.

The package is organized around three stages over plain files: bootstrap a
finding-label taxonomy from report text through an LLM gateway, train a
logit-adjusted multi-label linear classifier on precomputed image features,
then serialize the labels into guidance prompts for report generation and
score the results.
"""

__version__ = "0.1.0"
