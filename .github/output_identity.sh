#!/usr/bin/env bash
# Check that the working tree writes byte-identical outputs to a base commit.
#
#   .github/output_identity.sh <base-sha>
#
# Extracts the base commit with git archive into a scratch directory, then
# runs on both sides, with single-threaded BLAS and RuntimeWarnings raised
# as errors: every experiment the base lists in
# amboost.experiments.EXPERIMENTS with --svg at seeds 0 and 1, and fit,
# oracle and rates on demos/sample_config.ini at seeds 0, 1 and 4. The
# list comes from the base, so a new experiment joins the check one commit
# after the one that adds it. A run that exits non-zero on either side
# stops the check and is named. The output files are compared with
# diff -r; stdout is not, because it holds the output path. Exits non-zero
# on any difference. Needs no network. Scratch files go under $TMPDIR
# (default /tmp).
set -euo pipefail

base=${1:?usage: $0 <base-sha>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

export OPENBLAS_NUM_THREADS=1
# an overflow or invalid value fails a run, as in tier-1 and CI's runs
export PYTHONWARNINGS=error::RuntimeWarning
EXPERIMENTS=$(PYTHONPATH="$work/base/src" python -c \
    'from amboost.experiments import EXPERIMENTS; print(*EXPERIMENTS)')
test -n "$EXPERIMENTS"

failed() {  # <side> <run> <seed> <exit status>
    echo "$1: $2 at seed $3 exited $4" >&2
    exit 1
}

write_outputs() {  # <side> <source tree> <output dir>
    local side=$1 src=$2 out=$3 seed name cmd
    for seed in 0 1; do
        for name in $EXPERIMENTS; do
            PYTHONPATH="$src/src" python -m amboost.cli experiment "$name" \
                --svg --seed "$seed" --out "$out/exp_s$seed" >/dev/null \
                || failed "$side" "experiment $name" "$seed" $?
        done
    done
    for cmd in fit oracle rates; do
        for seed in 0 1 4; do
            PYTHONPATH="$src/src" python -m amboost.cli "$cmd" \
                --config "$src/demos/sample_config.ini" --seed "$seed" \
                --out "$out/${cmd}_$seed" >/dev/null \
                || failed "$side" "$cmd" "$seed" $?
        done
    done
}

write_outputs base "$work/base" "$work/out_base"
write_outputs head "$root" "$work/out_head"
diff -r "$work/out_base" "$work/out_head"
echo "outputs byte-identical to $base ($(find "$work/out_head" -type f | wc -l) files)"
