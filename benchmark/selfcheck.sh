#!/usr/bin/env bash
# Two sets of ten runs per workload on the same build, each run on another
# seed; prints both medians, both spreads and their difference per
# workload and end-to-end metric, and fails if any leaves its bound.
exec bash "$(dirname "$0")/run.sh" --selfcheck "$@"
